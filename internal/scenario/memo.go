package scenario

import (
	"sync"

	"ptgsched/internal/experiment"
)

// Memo is a per-point memoization source consulted by every sweep engine
// (RunMemo, RunEachMemo, a store.Sweep with a memo attached, the service
// and the fleet coordinator): Lookup is asked for a point's result before
// it is computed, and Publish is offered the result after a miss was
// computed. Implementations decide what "known" means — the canonical one
// is the content-addressed cache (internal/cache), which only answers
// Lookup from entries whose hash chain verified, so a memo hit is exactly
// as trustworthy as a fresh computation.
//
// Contract: a Lookup hit MUST be bit-identical to what RunPoint would
// return for the same point (PointResult round-trips float64 values
// exactly, so byte equality of the JSONL wire form is the test). Both
// methods must be safe for concurrent use; they are called from sweep
// worker goroutines. Publish is best-effort — an implementation that
// cannot persist a result simply drops it, it must not fail the sweep.
type Memo interface {
	Lookup(p Point) (PointResult, bool)
	Publish(p Point, r PointResult)
}

// ComputePoint is RunPoint behind a memo: a Lookup hit is returned as-is,
// a miss is computed and offered back via Publish. A nil memo degenerates
// to RunPoint exactly. All sweep paths funnel through this, so "consult
// the cache before computing, publish after" holds everywhere a point can
// be executed.
func (e *Expansion) ComputePoint(p Point, m Memo) PointResult {
	return e.ComputePointScratch(nil, p, m)
}

// ComputePointScratch is ComputePoint drawing per-point working state
// from a worker-owned scratch (nil degrades to ComputePoint exactly).
// The returned result is never scratch-owned — see Scratch — so it may
// be retained, batched and published freely.
func (e *Expansion) ComputePointScratch(sc *Scratch, p Point, m Memo) PointResult {
	if m != nil {
		if r, ok := m.Lookup(p); ok {
			return r
		}
	}
	r := e.runPoint(p, sc)
	if m != nil {
		m.Publish(p, r)
	}
	return r
}

// RunMemo is Run with a memo consulted per point. Results are
// bit-identical to Run at every worker count and every hit/miss split:
// the memo contract pins hits to what RunPoint would have produced.
func (e *Expansion) RunMemo(set IndexSet, workers int, m Memo) []PointResult {
	outs := make([]PointResult, set.Len())
	scratches := make([]*Scratch, experiment.Workers(set.Len(), workers))
	experiment.ForEachWorker(set.Len(), workers, func(w, j int) {
		if scratches[w] == nil {
			scratches[w] = NewScratch()
		}
		outs[j] = e.ComputePointScratch(scratches[w], e.PointAt(set.At(j)), m)
	})
	return outs
}

// RunEachMemo is RunEach with a memo consulted per point.
func (e *Expansion) RunEachMemo(set IndexSet, workers int, m Memo, emit func(PointResult) error) error {
	return e.runEach(set, workers, 0, false, m, emit)
}

// RunEachIsolatedMemo is RunEachIsolated with a memo consulted per point.
func (e *Expansion) RunEachIsolatedMemo(set IndexSet, workers int, m Memo, emit func(PointResult) error) error {
	return e.runEach(set, workers, 0, true, m, emit)
}

// RunEachOrderedMemo is RunEachMemo with emit calls in set order: the
// j-th call carries point set.At(j), at every worker count, so a stream
// written from emit is byte-identical however the sweep is fanned out.
// Results wait in a reorder window of Workers(set.Len(), workers) ×
// the default emit batch slots. A worker that draws a point past the
// window waits until the window's oldest point has been emitted, so the
// window bounds memory however uneven point costs are. emit calls are
// serialized; the first emit error stops the sweep and is returned.
func (e *Expansion) RunEachOrderedMemo(set IndexSet, workers int, m Memo, emit func(PointResult) error) error {
	n := set.Len()
	nw := experiment.Workers(n, workers)
	window := min(nw*defaultEmitBatch, max(n, 1))
	slots := make([]PointResult, window)
	ready := make([]bool, window)
	scratches := make([]*Scratch, nw)
	var (
		mu   sync.Mutex
		cond = sync.NewCond(&mu)
		next int // position in set of the next point to emit
		err  error
	)
	experiment.ForEachWorker(n, workers, func(w, j int) {
		mu.Lock()
		// Points are drawn in position order, so the point at next is
		// already being computed by a worker that does not wait here.
		for err == nil && j >= next+window {
			cond.Wait()
		}
		stopped := err != nil
		mu.Unlock()
		if stopped {
			return
		}
		if scratches[w] == nil {
			scratches[w] = NewScratch()
		}
		r := e.ComputePointScratch(scratches[w], e.PointAt(set.At(j)), m)

		mu.Lock()
		defer mu.Unlock()
		slots[j%window], ready[j%window] = r, true
		for err == nil && ready[next%window] {
			k := next % window
			out := slots[k]
			slots[k], ready[k] = PointResult{}, false
			next++
			err = emit(out)
		}
		cond.Broadcast()
	})
	return err
}
