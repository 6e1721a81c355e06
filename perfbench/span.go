package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Span is one timed call into a layer. Parent is the index of the span
// that caused it in the same Trace, or -1 for a root.
type Span struct {
	Layer      string
	Parent     int
	Start, End int64 // nanoseconds since the trace epoch
}

// Trace is one goroutine's span buffer. Spans are kept in memory and
// summarized when the run ends; a Trace must not be shared between
// goroutines.
type Trace struct {
	epoch time.Time
	Spans []Span
}

// NewTrace returns an empty trace whose times count from epoch.
func NewTrace(epoch time.Time) *Trace { return &Trace{epoch: epoch} }

// Begin opens a span under parent and returns its index.
func (t *Trace) Begin(layer string, parent int) int {
	t.Spans = append(t.Spans, Span{Layer: layer, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.Spans) - 1
}

// End closes span i.
func (t *Trace) End(i int) {
	t.Spans[i].End = int64(time.Since(t.epoch))
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once, and child time outside the parent's interval is ignored.
func SelfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s, spans, children[i])
	}
	return self
}

// covered returns the length of the union of the child intervals, clipped
// to the parent's interval.
func covered(parent Span, spans []Span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// LayerStats aggregates the spans of one layer across traces.
type LayerStats struct {
	Calls  int
	SelfNS int64
	// Dur holds each call's full duration in nanoseconds.
	Dur Dist
}

// Summarize folds traces into per-layer statistics and returns them with
// the summed duration of the root spans (the traced work's total).
func Summarize(traces []*Trace) (map[string]*LayerStats, int64) {
	out := map[string]*LayerStats{}
	var rootNS int64
	for _, t := range traces {
		self := SelfTimes(t.Spans)
		for i, s := range t.Spans {
			ls := out[s.Layer]
			if ls == nil {
				ls = &LayerStats{}
				out[s.Layer] = ls
			}
			ls.Calls++
			ls.SelfNS += self[i]
			ls.Dur.Add(float64(s.End - s.Start))
			if s.Parent < 0 {
				rootNS += s.End - s.Start
			}
		}
	}
	return out, rootNS
}

// PrintShares writes the stage-share table: per layer, its calls, self
// time and share of the root spans' total.
func PrintShares(w io.Writer, title string, layers map[string]*LayerStats, rootNS int64) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return layers[names[a]].SelfNS > layers[names[b]].SelfNS })
	fmt.Fprintf(w, "# stage shares (%s): self time of each layer / traced total %.3fs\n", title, float64(rootNS)/1e9)
	fmt.Fprintf(w, "# %-12s %10s %12s %8s\n", "layer", "calls", "self_s", "share")
	for _, n := range names {
		ls := layers[n]
		share := 0.0
		if rootNS > 0 {
			share = float64(ls.SelfNS) / float64(rootNS)
		}
		fmt.Fprintf(w, "# %-12s %10d %12.4f %7.1f%%\n", n, ls.Calls, float64(ls.SelfNS)/1e9, 100*share)
	}
}
