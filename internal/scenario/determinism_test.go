package scenario

// Determinism suite for the batched sweep runners: the emitted result set,
// the aggregated campaign tables, and the JSONL wire bytes must be
// bit-identical across every worker count × emit batch size combination,
// and the streaming error semantics (first emit error stops the sweep,
// per-point panic isolation) must survive the batching. Run under -race
// in CI's multicore lane.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ptgsched/internal/dag"
)

// determinismSpec covers two static cells (strassen and a fixed FFT size)
// across two sites: 2 cells × 2 NPTGs × 3 reps × 2 platforms = 24 points,
// enough for every worker/batch shape below to split unevenly.
const determinismSpec = `{
	"name": "determinism",
	"seed": 77,
	"reps": 3,
	"nptgs": [2, 3],
	"platforms": ["lille", "rennes"],
	"families": [{"family": "strassen"}, {"family": "fft", "k": [2]}]
}`

// jsonlBytes pins results to their wire form: byte equality here is the
// bit-identity test (PointResult round-trips float64 exactly).
func jsonlBytes(t *testing.T, results []PointResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRunEachBatchWorkerAndBatchInvariance(t *testing.T) {
	e := mustExpand(t, mustParse(t, determinismSpec))
	set := e.All()

	baseline := e.Run(set, 1)
	wantJSONL := jsonlBytes(t, baseline)
	wantTables, err := e.Aggregate(baseline)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		for _, batch := range []int{1, 16, 256} {
			for _, isolated := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d/batch=%d", workers, batch)
				runner := e.RunEachBatch
				if isolated {
					name += "/isolated"
					runner = e.RunEachIsolatedBatch
				}
				t.Run(name, func(t *testing.T) {
					var got []PointResult
					if err := runner(set, workers, batch, func(r PointResult) error {
						got = append(got, r)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					if len(got) != set.Len() {
						t.Fatalf("emitted %d results, want %d", len(got), set.Len())
					}
					SortResults(got)
					if !bytes.Equal(jsonlBytes(t, got), wantJSONL) {
						t.Fatal("emitted results differ from the 1-worker reference")
					}
					tables, err := e.Aggregate(got)
					if err != nil {
						t.Fatal(err)
					}
					for i := range tables {
						if !reflect.DeepEqual(tables[i].Result.Points, wantTables[i].Result.Points) {
							t.Fatalf("cell %d tables differ from the 1-worker reference", i)
						}
					}
				})
			}
		}
	}
}

// TestRunEachBatchFirstErrorStops pins the contract the batching must not
// erode: after emit returns an error, no further result is emitted —
// buffered batches are discarded, not delivered — and the sweep returns
// exactly that error.
func TestRunEachBatchFirstErrorStops(t *testing.T) {
	e := mustExpand(t, mustParse(t, determinismSpec))
	set := e.All()
	sentinel := errors.New("sink full")

	for _, workers := range []int{1, 2, 8} {
		for _, batch := range []int{1, 16, 256} {
			emitted, after := 0, 0
			err := e.RunEachBatch(set, workers, batch, func(PointResult) error {
				if emitted == 5 {
					emitted++
					return sentinel
				}
				if emitted > 5 {
					after++
				}
				emitted++
				return nil
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("workers=%d batch=%d: err = %v, want the emit error", workers, batch, err)
			}
			if after != 0 {
				t.Fatalf("workers=%d batch=%d: %d results emitted after the error", workers, batch, after)
			}
		}
	}
}

// TestRunEachIsolatedBatchPanicIsolation: a panicking point must surface
// as an error from the isolated runner (not unwind a worker goroutine),
// at every worker count and batch size.
func TestRunEachIsolatedBatchPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, batch := range []int{1, 16, 256} {
			e := mustExpand(t, mustParse(t, determinismSpec))
			// Every point of cell 0 panics inside its generator; cell 1
			// stays healthy, so workers cross the failure mid-sweep.
			e.Cells[0].Config.Gen = func(*rand.Rand) *dag.Graph {
				panic("degenerate scenario")
			}
			err := e.RunEachIsolatedBatch(e.All(), workers, batch, func(PointResult) error { return nil })
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("workers=%d batch=%d: err = %v, want a panic conversion", workers, batch, err)
			}
		}
	}
}

// TestRunMemoWorkerInvariance covers the scratch-threaded materializing
// runner the batched path shares its per-worker state discipline with.
func TestRunMemoWorkerInvariance(t *testing.T) {
	e := mustExpand(t, mustParse(t, determinismSpec))
	set := e.All()
	want := jsonlBytes(t, e.Run(set, 1))
	for _, workers := range []int{2, 8} {
		if got := jsonlBytes(t, e.Run(set, workers)); !bytes.Equal(got, want) {
			t.Fatalf("Run with %d workers differs from 1-worker reference", workers)
		}
	}
}

// TestRunEachOrderedMemoEmitsSetOrder: the ordered runner delivers the
// j-th emit for set.At(j) — so a JSONL stream written from emit is
// byte-identical to the sequential reference without any sorting — at
// every worker count, for the whole set and for a strided shard, with and
// without a memo.
func TestRunEachOrderedMemoEmitsSetOrder(t *testing.T) {
	e := mustExpand(t, mustParse(t, determinismSpec))
	shard, err := e.Shard(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []IndexSet{e.All(), shard} {
		want := jsonlBytes(t, e.Run(set, 1))
		for _, workers := range []int{1, 2, 8} {
			for _, memo := range []*mapMemo{nil, newMapMemo()} {
				var got []PointResult
				var m Memo
				if memo != nil {
					m = memo
				}
				if err := e.RunEachOrderedMemo(set, workers, m, func(r PointResult) error {
					got = append(got, r)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(jsonlBytes(t, got), want) {
					t.Fatalf("set of %d, workers=%d, memo=%v: emitted stream differs from the sequential reference",
						set.Len(), workers, memo != nil)
				}
			}
		}
	}
}

// windowMemo serves every point as an instant synthetic hit, stalling on
// point 0, and records how many points were under way but not yet
// emitted whenever one starts.
type windowMemo struct {
	started, emitted atomic.Int64
	maxPending       atomic.Int64
}

func (w *windowMemo) Lookup(p Point) (PointResult, bool) {
	if p.Index == 0 {
		time.Sleep(50 * time.Millisecond)
	}
	pending := w.started.Add(1) - w.emitted.Load()
	for {
		cur := w.maxPending.Load()
		if pending <= cur || w.maxPending.CompareAndSwap(cur, pending) {
			break
		}
	}
	return PointResult{Index: p.Index, Cell: p.Cell, Name: p.Name}, true
}

func (w *windowMemo) Publish(Point, PointResult) {}

// TestRunEachOrderedMemoBoundsTheWindow: while the first point stalls,
// the other workers may run ahead by at most workers × the emit batch
// points, and the order still holds.
func TestRunEachOrderedMemoBoundsTheWindow(t *testing.T) {
	e := mustExpand(t, mustParse(t, `{
		"name": "window", "seed": 3, "reps": 300, "nptgs": [2],
		"platforms": ["lille", "rennes"], "families": [{"family": "strassen"}]
	}`))
	set := e.All()
	for _, workers := range []int{2, 4} {
		m := &windowMemo{}
		next := 0
		if err := e.RunEachOrderedMemo(set, workers, m, func(r PointResult) error {
			if r.Index != set.At(next) {
				return fmt.Errorf("emit %d carries point %d", next, r.Index)
			}
			next++
			m.emitted.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		window := int64(workers * defaultEmitBatch)
		// The stall lets the others fill the window, never more.
		if next != set.Len() || m.maxPending.Load() > window || m.maxPending.Load() < window/2 {
			t.Fatalf("workers=%d: %d of %d emitted, up to %d points pending (window %d)",
				workers, next, set.Len(), m.maxPending.Load(), window)
		}
	}
}

// TestRunEachOrderedMemoFirstErrorStops: after emit returns an error no
// further result is emitted and the sweep returns that error.
func TestRunEachOrderedMemoFirstErrorStops(t *testing.T) {
	e := mustExpand(t, mustParse(t, determinismSpec))
	sentinel := errors.New("sink full")
	for _, workers := range []int{1, 2, 8} {
		emitted := 0
		err := e.RunEachOrderedMemo(e.All(), workers, nil, func(PointResult) error {
			emitted++
			if emitted == 5 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) || emitted != 5 {
			t.Fatalf("workers=%d: err = %v after %d emits, want the emit error after 5", workers, err, emitted)
		}
	}
}
