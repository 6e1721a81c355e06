// Package core assembles the paper's complete concurrent PTG scheduler: a
// resource-constraint determination strategy (§6) feeding the constrained
// allocation procedure SCRAP-MAX (§4), whose per-application allocations
// are then mapped together by the concurrent ready-task list mapper (§5).
//
// It also provides the dedicated-platform scheduling used to measure
// M_own(a), the makespan an application achieves with the resources on its
// own — the numerator of the slowdown metric (Eq. 3).
//
// Concurrency: a Scheduler is a small immutable configuration over an
// immutable Platform; Schedule keeps all mutable state in per-call values
// but drives the cached analyses of its input graphs. Distinct Scheduler
// values (or one value with distinct graph batches) may therefore run
// concurrently — the contract the service and experiment layers build on.
// One batch's graphs must not be scheduled from two goroutines at once.
package core

import (
	"fmt"

	"ptgsched/internal/alloc"
	"ptgsched/internal/dag"
	"ptgsched/internal/mapping"
	"ptgsched/internal/metrics"
	"ptgsched/internal/platform"
	"ptgsched/internal/simexec"
	"ptgsched/internal/strategy"
)

// Scheduler schedules batches of PTGs on one multi-cluster platform. The
// zero value of Options selects the paper's configuration: SCRAP-MAX
// allocation, ready-task ordering, allocation packing on.
type Scheduler struct {
	Platform *platform.Platform
	// Procedure is the allocation procedure (default SCRAPMAX; the paper
	// only evaluates SCRAP-MAX, SCRAP is kept for ablation).
	Procedure alloc.Procedure
	// MapOptions tunes the mapping step.
	MapOptions mapping.Options
}

// New returns a scheduler for pf in the paper's configuration.
func New(pf *platform.Platform) *Scheduler {
	return &Scheduler{Platform: pf, Procedure: alloc.SCRAPMAX}
}

// Result is the outcome of scheduling one batch of PTGs: the β constraints
// chosen by the strategy, the per-application allocations, the mapped
// schedule, and the simulated execution (per-application makespans under
// actual network contention).
type Result struct {
	Strategy    strategy.Strategy
	Betas       []float64
	Allocations []*alloc.Allocation
	Schedule    *mapping.Schedule
	Exec        *simexec.Result
}

// Makespan returns the simulated completion time of application i.
func (r *Result) Makespan(i int) float64 { return r.Exec.AppMakespans[i] }

// GlobalMakespan returns the simulated completion time of the whole batch.
func (r *Result) GlobalMakespan() float64 { return r.Exec.Makespan }

// Schedule runs the full pipeline on a batch of concurrently-submitted
// PTGs under the given constraint-determination strategy. The returned
// Result is the caller's: nothing in it is shared with later calls.
func (s *Scheduler) Schedule(graphs []*dag.Graph, strat strategy.Strategy) *Result {
	return s.ScheduleWith(NewScratch(), graphs, strat)
}

// Scratch amortizes a scheduler's per-call state — the simulated
// executor's engine, flow net and buffers, the growth log and the
// allocation matrix — across the many batches one worker schedules. A
// Scratch must be confined to one goroutine; the Result ScheduleWith
// returns (with its allocations, and the Evaluation slices EvaluateWith
// fills) is scratch-owned and overwritten by the next call on the same
// Scratch, so callers consume it before scheduling again.
type Scratch struct {
	exec *simexec.Scratch
	grow alloc.Grower
	// arena backs the allocation matrix; cells points into it.
	arena []alloc.Allocation
	cells []*alloc.Allocation
	apps  []*alloc.Allocation
	betas [][]float64
	set   []float64
	own   []float64
	alone [1]*dag.Graph
	one   [1]*alloc.Allocation
	unit  [1]float64
	slow  []float64
	res   Result
}

// NewScratch returns an empty scratch ready for ScheduleWith.
func NewScratch() *Scratch {
	return &Scratch{exec: simexec.NewScratch(), unit: [1]float64{1}}
}

// matrix returns n scratch-owned allocations, recycling their buffers.
func (sc *Scratch) matrix(n int) []*alloc.Allocation {
	if len(sc.arena) < n {
		// Growing may move the arena; the cells are re-pointed, and the
		// moved values keep their Procs buffers.
		sc.arena = append(sc.arena, make([]alloc.Allocation, n-len(sc.arena))...)
		sc.cells = sc.cells[:0]
		for k := range sc.arena {
			sc.cells = append(sc.cells, &sc.arena[k])
		}
	}
	return sc.cells[:n]
}

// ScheduleWith is Schedule on a reusable worker-owned scratch. The
// returned Result belongs to the scratch: it is valid until the next
// ScheduleWith, ScheduleAloneWith or ScheduleBatch call on sc. The
// computation is bit-identical to Schedule.
func (s *Scheduler) ScheduleWith(sc *Scratch, graphs []*dag.Graph, strat strategy.Strategy) *Result {
	if len(graphs) == 0 {
		panic("core: empty batch")
	}
	ref := s.Platform.ReferenceCluster()
	betas := strat.Betas(graphs, ref)
	apps := sc.matrix(len(graphs))
	for i, g := range graphs {
		sc.grow.Grow(apps[i:i+1], g, ref, betas[i:i+1], s.Procedure)
	}
	return s.execute(sc, strat, betas, apps)
}

// execute maps one batch's allocations and simulates the schedule: the
// tail every entry point shares. The Result is scratch-owned.
func (s *Scheduler) execute(sc *Scratch, strat strategy.Strategy, betas []float64, apps []*alloc.Allocation) *Result {
	sched := mapping.Map(s.Platform, apps, s.MapOptions)
	sc.res = Result{
		Strategy:    strat,
		Betas:       betas,
		Allocations: apps,
		Schedule:    sched,
		Exec:        sc.exec.Execute(sched),
	}
	return &sc.res
}

// ScheduleAlone schedules a single PTG with the whole platform to itself
// (β = 1), the configuration M_own is measured in. The returned makespan is
// the simulated one.
func (s *Scheduler) ScheduleAlone(g *dag.Graph) float64 {
	return s.Schedule([]*dag.Graph{g}, strategy.S()).Makespan(0)
}

// ScheduleAloneWith is ScheduleAlone on a reusable scratch.
func (s *Scheduler) ScheduleAloneWith(sc *Scratch, g *dag.Graph) float64 {
	sc.alone[0] = g
	return s.ScheduleWith(sc, sc.alone[:], strategy.S()).Makespan(0)
}

// ScheduleBatch schedules a batch under every strategy of strats, and
// each of its PTGs alone, from a single allocation pass: each graph is
// grown once for M_own's β = 1 and every strategy's β (alloc.Grower),
// then the allocations are mapped and executed per configuration. It
// first computes own[i] = M_own of graphs[i] (ScheduleAlone's value),
// then calls each(k, res, own) for every strategy k in order, where res
// is what ScheduleWith(graphs, strats[k]) returns. res and own are
// scratch-owned: res is valid during the call, own until the next call
// on sc. Every value is bit-identical to the separate calls.
func (s *Scheduler) ScheduleBatch(sc *Scratch, graphs []*dag.Graph, strats []strategy.Strategy, each func(k int, res *Result, own []float64)) {
	if len(graphs) == 0 {
		panic("core: empty batch")
	}
	ref := s.Platform.ReferenceCluster()
	n, cols := len(graphs), len(strats)+1
	sc.betas = resize(sc.betas, len(strats))
	for k, strat := range strats {
		sc.betas[k] = strat.Betas(graphs, ref)
	}
	// Row i of the matrix holds graph i's allocations: β = 1 first, then
	// one per strategy.
	m := sc.matrix(n * cols)
	set := resize(sc.set, cols)
	sc.set = set
	for i, g := range graphs {
		set[0] = 1
		for k := range strats {
			set[k+1] = sc.betas[k][i]
		}
		sc.grow.Grow(m[i*cols:(i+1)*cols], g, ref, set, s.Procedure)
	}

	own := resize(sc.own, n)
	sc.own = own
	for i := range graphs {
		sc.one[0] = m[i*cols]
		own[i] = s.execute(sc, strategy.S(), sc.unit[:], sc.one[:]).Makespan(0)
	}
	apps := resize(sc.apps, n)
	sc.apps = apps
	for k, strat := range strats {
		for i := range graphs {
			apps[i] = m[i*cols+k+1]
		}
		each(k, s.execute(sc, strat, sc.betas[k], apps), own)
	}
}

// resize returns s with length n, reusing its capacity when possible.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Evaluation bundles the paper's metrics for one scheduled batch.
type Evaluation struct {
	Slowdowns  []float64
	Unfairness float64
	// Makespan is the batch's global simulated completion time.
	Makespan float64
}

// Evaluate computes the slowdown of each application (against the provided
// M_own values) and the batch unfairness.
func (r *Result) Evaluate(own []float64) Evaluation {
	return r.evaluate(own, make([]float64, len(own)))
}

// EvaluateWith is Evaluate with the Slowdowns slice drawn from the
// scratch: the returned Evaluation is valid until the next EvaluateWith
// on sc. Callers that keep only the scalar fields (unfairness, makespan)
// pay no per-call allocation.
func (r *Result) EvaluateWith(sc *Scratch, own []float64) Evaluation {
	if cap(sc.slow) < len(own) {
		sc.slow = make([]float64, len(own))
	}
	return r.evaluate(own, sc.slow[:len(own)])
}

func (r *Result) evaluate(own, sl []float64) Evaluation {
	if len(own) != len(r.Exec.AppMakespans) {
		panic(fmt.Sprintf("core: %d own makespans for %d applications",
			len(own), len(r.Exec.AppMakespans)))
	}
	for i := range sl {
		sl[i] = metrics.Slowdown(own[i], r.Exec.AppMakespans[i])
	}
	return Evaluation{
		Slowdowns:  sl,
		Unfairness: metrics.Unfairness(sl),
		Makespan:   r.Exec.Makespan,
	}
}
