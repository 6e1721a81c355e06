package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"

	"ptgsched/internal/scenario"
)

// digestFiles hashes each file's path and contents in the given order.
func digestFiles(paths []string) string {
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// resultDigest hashes results in the campaign JSONL wire format, in the
// order given (callers pass them sorted by point index).
func resultDigest(results []scenario.PointResult) (string, error) {
	h := sha256.New()
	var buf []byte
	for _, pr := range results {
		var err error
		if buf, err = scenario.AppendJSONL(buf[:0], pr); err != nil {
			return "", err
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sameRecord reports whether two results encode to identical JSONL bytes,
// which for float64 values means bit-identical.
func sameRecord(a, b scenario.PointResult) bool {
	ea, errA := scenario.AppendJSONL(nil, a)
	eb, errB := scenario.AppendJSONL(nil, b)
	return errA == nil && errB == nil && string(ea) == string(eb)
}

// sameValues reports whether two results carry the same identity and
// bit-identical values.
func sameValues(a, b scenario.PointResult) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return a.Index == b.Index && a.Cell == b.Cell && a.Name == b.Name &&
		eq(a.Unfairness, b.Unfairness) && eq(a.Makespan, b.Makespan) && eq(a.Rel, b.Rel)
}

// OrderErrors counts the positions where an index stream steps backwards:
// zero exactly when the stream is in strictly increasing global order.
// Repeated indices count too.
func OrderErrors(indices []int) int {
	n := 0
	for i := 1; i < len(indices); i++ {
		if indices[i] <= indices[i-1] {
			n++
		}
	}
	return n
}

// mix derives a well-spread 64-bit seed from a base seed and a salt
// (splitmix64 finalizer).
func mix(seed int64, salt uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + salt*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & (1<<63 - 1))
}
