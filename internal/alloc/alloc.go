// Package alloc implements the constrained resource allocation step of the
// paper's two-step scheduling approach (§4): deciding how many processors
// each task of a PTG receives, under a resource constraint β that bounds
// the fraction of the platform's total processing power the PTG may use.
//
// Following HCPA, allocation happens on a homogeneous *reference cluster*
// (platform.Reference): every task is allocated a number of reference
// processors; at mapping time the reference allocation is translated into a
// concrete allocation of equivalent power on the chosen cluster.
//
// Two procedures are provided, both from the authors' earlier work recalled
// in §4. Starting from one processor per task, each iteration gives one
// more processor to the critical-path task that benefits most; they differ
// in how a violation of β is detected:
//
//   - SCRAP: global test — the total task area (time × power) divided by
//     the critical path length must not exceed β times the platform power.
//   - SCRAP-MAX: per-precedence-level test — the summed power of the
//     allocations within any precedence level must not exceed β times the
//     platform power, so that concurrent ready tasks of one level can all
//     run inside the PTG's share.
//
// Several constraints on one graph share one growth (Grower): the run at
// the largest β logs its steps, and every smaller β resumes from the log
// where its own run first departs from it.
//
// Concurrency: Compute keeps all mutable state in per-call values, and a
// Grower is confined to one goroutine; both drive the cached analyses of
// the dag.Graph they are given, so concurrent calls are safe only on
// distinct graphs.
package alloc

import (
	"fmt"
	"math"

	"ptgsched/internal/cost"
	"ptgsched/internal/dag"
	"ptgsched/internal/platform"
)

// Procedure selects the constraint-violation test.
type Procedure int

const (
	// SCRAP applies the global area test.
	SCRAP Procedure = iota
	// SCRAPMAX applies the per-precedence-level power test. The paper's
	// evaluation uses only SCRAP-MAX (§4, last paragraph).
	SCRAPMAX
)

// String implements fmt.Stringer.
func (p Procedure) String() string {
	switch p {
	case SCRAP:
		return "SCRAP"
	case SCRAPMAX:
		return "SCRAP-MAX"
	default:
		return fmt.Sprintf("Procedure(%d)", int(p))
	}
}

// Allocation is the result of the allocation step: a number of reference
// processors per task (indexed by task ID).
type Allocation struct {
	Graph *dag.Graph
	Ref   platform.Reference
	Beta  float64
	Procs []int

	// powers is the reusable buffer behind load's per-level power sum:
	// the growth loop runs it once per tentative step, so the buffer
	// amortizes to zero allocations across an entire growth.
	powers []float64
}

// TimeOf returns the estimated execution time of t on its reference
// allocation.
func (a *Allocation) TimeOf(t *dag.Task) float64 {
	return cost.TaskTime(t, a.Ref.Speed, a.Procs[t.ID])
}

// PowerOf returns the reference processing power consumed by t's
// allocation, in GFlop/s.
func (a *Allocation) PowerOf(t *dag.Task) float64 {
	return float64(a.Procs[t.ID]) * a.Ref.Speed
}

// CriticalPathLength returns the critical path length of the graph under
// the current allocation, ignoring communication (allocation, like CPA,
// reasons on computation only; the mapper accounts for redistribution).
func (a *Allocation) CriticalPathLength() float64 {
	return a.Graph.CriticalPathLength(a.TimeOf, dag.ZeroComm)
}

// TotalArea returns the summed area (execution time × consumed power) of
// all tasks under the current allocation, in GFlop.
func (a *Allocation) TotalArea() float64 {
	area := 0.0
	for _, t := range a.Graph.Tasks {
		area += a.TimeOf(t) * a.PowerOf(t)
	}
	return area
}

// LevelPowers returns, per precedence level, the summed power of the
// allocations of the level's tasks, in GFlop/s.
func (a *Allocation) LevelPowers() []float64 {
	sets := a.Graph.LevelSets()
	powers := make([]float64, len(sets))
	a.levelPowersInto(powers, sets)
	return powers
}

// levelPowersInto computes LevelPowers into powers, which must have
// length len(sets).
func (a *Allocation) levelPowersInto(powers []float64, sets [][]*dag.Task) {
	for l, set := range sets {
		sum := 0.0
		for _, t := range set {
			sum += a.PowerOf(t)
		}
		powers[l] = sum
	}
}

// tol is the relative slack of the violation test, absorbing rounding in
// the summed powers and areas.
const tol = 1e-9

// limit is the largest load the β constraint admits: β times the
// platform power, with tol slack.
func limit(beta float64, ref platform.Reference) float64 {
	budget := beta * ref.Power()
	return budget * (1 + tol)
}

// load is the quantity the violation test compares against limit. For
// SCRAP-MAX it is the peak level power; for SCRAP it is the total area
// over the critical path length (0 when the critical path is not
// positive, which never violates). It depends on Procs alone, never on
// β — the property the shared growth log rests on.
func (a *Allocation) load(proc Procedure) float64 {
	switch proc {
	case SCRAP:
		cp := a.CriticalPathLength()
		if cp <= 0 {
			return 0
		}
		return a.TotalArea() / cp
	case SCRAPMAX:
		sets := a.Graph.LevelSets()
		if len(a.powers) != len(sets) {
			a.powers = make([]float64, len(sets))
		}
		a.levelPowersInto(a.powers, sets)
		peak := math.Inf(-1)
		for _, p := range a.powers {
			if p > peak {
				peak = p
			}
		}
		return peak
	default:
		panic(fmt.Sprintf("alloc: unknown procedure %d", int(proc)))
	}
}

// Respected reports whether the final allocation satisfies its constraint
// (it may not when β is so small that even one processor per task exceeds
// the budget; the paper reports 99% respect across its scenarios). The
// minimal allocation (one processor per task) always counts as
// respecting it: a task cannot use less than one processor.
func (a *Allocation) Respected(proc Procedure) bool {
	for _, p := range a.Procs {
		if p > 1 {
			return !(a.load(proc) > limit(a.Beta, a.Ref))
		}
	}
	return true
}

// Compute runs the constrained allocation procedure on g for a platform
// described by ref, under resource constraint beta ∈ (0, 1]. It is the
// one-β case of Grower.Grow.
func Compute(g *dag.Graph, ref platform.Reference, beta float64, proc Procedure) *Allocation {
	a := &Allocation{}
	var gr Grower
	gr.Grow([]*Allocation{a}, g, ref, []float64{beta}, proc)
	return a
}

// step is one tentative growth step of a logged run: the task widened by
// one processor, whether the widening was kept, and the load the
// violation test compared.
type step struct {
	load     float64
	task     int32
	accepted bool
}

// Grower grows the allocations of one graph under several constraints
// from a single shared growth. The run at the largest β records a log of
// its tentative steps; each smaller β replays the log of the next larger
// one up to the first step that run accepted but whose load exceeds the
// smaller β's limit, saturates that step's task, and resumes the ordinary
// growth loop from there. A run logs only up to the step where the next
// smaller β departs from it; nothing later is ever replayed.
//
// The result is bit-identical to a separate run per β. The task a step
// widens depends only on (Procs, saturated), and the load only on Procs,
// so two runs from the same state make the same step. A step the larger
// run rejected has load > limit(β_large) ≥ limit(β_small) and is rejected
// by the smaller run too; a step it accepted is accepted by the smaller
// run exactly when its load is within limit(β_small). Up to the first
// step where that fails, both runs therefore move through the same
// states.
//
// The zero value is ready for use; a Grower reused across calls recycles
// its log and flags. It must be confined to one goroutine.
type Grower struct {
	log       []step
	saturated []bool
}

// Grow computes into dst[k] the allocation of g under constraint betas[k]
// (each in (0, 1]) for a platform described by ref. The Allocation
// values dst points to are overwritten; their Procs buffers are reused
// when large enough.
func (gr *Grower) Grow(dst []*Allocation, g *dag.Graph, ref platform.Reference, betas []float64, proc Procedure) {
	if len(dst) != len(betas) {
		panic(fmt.Sprintf("alloc: %d allocations for %d constraints", len(dst), len(betas)))
	}
	for _, beta := range betas {
		if beta <= 0 || beta > 1 {
			panic(fmt.Sprintf("alloc: beta %g outside (0,1]", beta))
		}
	}
	if err := g.Validate(false); err != nil {
		panic(fmt.Sprintf("alloc: invalid graph: %v", err))
	}
	n := len(g.Tasks)
	if cap(gr.saturated) < n {
		gr.saturated = make([]bool, n)
	}
	gr.saturated = gr.saturated[:n]

	// Largest β first; insertion sort keeps equal constraints in input
	// order. A batch's few constraints sort in a stack buffer.
	var buf [16]int
	order := buf[:0]
	if len(betas) > len(buf) {
		order = make([]int, 0, len(betas))
	}
	for k := range betas {
		j := len(order)
		order = append(order, k)
		for ; j > 0 && betas[order[j-1]] < betas[k]; j-- {
			order[j] = order[j-1]
		}
		order[j] = k
	}

	var prev *Allocation
	for i, k := range order {
		a := dst[k]
		*a = Allocation{Graph: g, Ref: ref, Beta: betas[k], Procs: a.Procs[:0], powers: a.powers}
		if cap(a.Procs) < n {
			a.Procs = make([]int, n)
		}
		a.Procs = a.Procs[:n]
		// Only a run some smaller β resumes from needs its log, and only
		// up to the step where the next smaller β departs from it.
		horizon := math.NaN()
		for _, next := range order[i+1:] {
			if betas[next] < a.Beta {
				horizon = limit(betas[next], ref)
				break
			}
		}
		if prev == nil {
			gr.log = gr.log[:0]
			gr.replay(a, 0)
			gr.run(a, proc, horizon)
		} else if d := gr.divergence(limit(a.Beta, ref)); d < 0 {
			copy(a.Procs, prev.Procs)
		} else {
			gr.replay(a, d)
			gr.saturated[gr.log[d].task] = true
			gr.log[d].accepted = false
			gr.log = gr.log[:d+1]
			gr.run(a, proc, horizon)
		}
		prev = a
	}
}

// divergence returns the first logged step that was accepted but whose
// load exceeds lim, or -1 when there is none. A log stops early only
// after an accepted step over the next smaller β's limit, which is at
// least lim unless lim is the logged run's own limit; so on -1 the run
// under lim ends exactly where the logged run ended.
func (gr *Grower) divergence(lim float64) int {
	for j, s := range gr.log {
		if s.accepted && s.load > lim {
			return j
		}
	}
	return -1
}

// replay rebuilds the state before logged step d: one processor per
// task, plus every accepted widening and every saturation of the steps
// before d.
func (gr *Grower) replay(a *Allocation, d int) {
	for i := range a.Procs {
		a.Procs[i] = 1
	}
	clear(gr.saturated)
	for _, s := range gr.log[:d] {
		if s.accepted {
			a.Procs[s.task]++
		} else {
			gr.saturated[s.task] = true
		}
	}
}

// run is the growth loop: starting from a's current state, repeatedly
// give one more processor to the critical-path task that gains most,
// keeping the widening unless it breaks the constraint (the task then
// saturates), until no critical-path task can grow. Unless horizon is
// NaN, tentative steps are appended to the log up to and including the
// first accepted one whose load exceeds horizon: the next smaller β
// departs from this run there at the latest.
func (gr *Grower) run(a *Allocation, proc Procedure, horizon float64) {
	record := !math.IsNaN(horizon)
	g, ref := a.Graph, a.Ref
	lim := limit(a.Beta, ref)
	// saturated marks tasks that can no longer grow: either at the
	// platform size or whose last tentative growth violated the
	// constraint.
	saturated := gr.saturated
	for {
		marks := g.OnCriticalPath(a.TimeOf, dag.ZeroComm)
		best := -1
		bestGain := 0.0
		for _, t := range g.Tasks {
			if !marks[t.ID] || saturated[t.ID] || a.Procs[t.ID] >= ref.Procs {
				continue
			}
			gain := cost.MarginalGain(t, ref.Speed, a.Procs[t.ID])
			if gain > bestGain {
				bestGain = gain
				best = t.ID
			}
		}
		if best < 0 {
			// No critical-path task can grow: either all saturated or no
			// task gains from one more processor (alpha = 1).
			return
		}
		// The widened task holds two or more processors, so the state is
		// never minimal here and the load decides alone.
		a.Procs[best]++
		load := a.load(proc)
		accepted := !(load > lim)
		if record {
			gr.log = append(gr.log, step{load: load, task: int32(best), accepted: accepted})
			record = !accepted || !(load > horizon)
		}
		if !accepted {
			a.Procs[best]--
			saturated[best] = true
		}
	}
}

// TranslateBatch translates a whole reference allocation vector (indexed by
// task ID) into per-cluster concrete widths in one pass: the result is
// indexed [cluster][taskID]. The mapper evaluates every (task, cluster)
// candidate, so batching the translation hoists the rounding and clamping
// out of its innermost loop while producing exactly Translate's values.
func TranslateBatch(procs []int, ref platform.Reference, clusters []*platform.Cluster) [][]int {
	out := make([][]int, len(clusters))
	flat := make([]int, len(clusters)*len(procs))
	for k, c := range clusters {
		row := flat[k*len(procs) : (k+1)*len(procs)]
		for i, p := range procs {
			row[i] = Translate(p, ref, c)
		}
		out[k] = row
	}
	return out
}

// Translate converts a reference allocation of p processors into an
// allocation on cluster c of (approximately) equivalent processing power,
// as HCPA does on heterogeneous platforms: round(p·s_ref/s_c), clamped to
// [1, c.Procs].
func Translate(p int, ref platform.Reference, c *platform.Cluster) int {
	return TranslateTo(p, ref, c.Procs, c.Speed)
}

// TranslateTo is Translate against an explicit capacity and speed instead
// of a cluster's static ones. The online scheduler uses it under dynamic
// scenarios, where a cluster's effective speed can differ from its
// configured speed; with procs = c.Procs and speed = c.Speed it computes
// exactly Translate's value.
func TranslateTo(p int, ref platform.Reference, procs int, speed float64) int {
	if p < 1 {
		panic(fmt.Sprintf("alloc: translating allocation of %d processors", p))
	}
	q := int(math.Round(float64(p) * ref.Speed / speed))
	if q < 1 {
		q = 1
	}
	if q > procs {
		q = procs
	}
	return q
}
