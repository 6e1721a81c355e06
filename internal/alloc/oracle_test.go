package alloc

import (
	"fmt"

	"ptgsched/internal/cost"
	"ptgsched/internal/dag"
	"ptgsched/internal/platform"
)

// oracleCompute is the growth loop as it stood before the shared log:
// one full run per β, the violation test evaluated in place. The
// differential test and the fuzz target hold Grower to it step for step.
func oracleCompute(g *dag.Graph, ref platform.Reference, beta float64, proc Procedure) *Allocation {
	if beta <= 0 || beta > 1 {
		panic(fmt.Sprintf("alloc: beta %g outside (0,1]", beta))
	}
	if err := g.Validate(false); err != nil {
		panic(fmt.Sprintf("alloc: invalid graph: %v", err))
	}
	a := &Allocation{Graph: g, Ref: ref, Beta: beta, Procs: make([]int, len(g.Tasks))}
	for i := range a.Procs {
		a.Procs[i] = 1
	}

	// saturated marks tasks that can no longer grow: either at the
	// platform size or whose last tentative growth violated the
	// constraint.
	saturated := make([]bool, len(g.Tasks))

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
			return a
		}
		a.Procs[best]++
		if oracleViolates(a, proc) {
			a.Procs[best]--
			saturated[best] = true
			continue
		}
	}
}

// oracleViolates is the violation test as it stood before the shared
// log: a per-level early exit for SCRAP-MAX, an in-place area test for
// SCRAP.
func oracleViolates(a *Allocation, proc Procedure) bool {
	minimal := true
	for _, p := range a.Procs {
		if p > 1 {
			minimal = false
			break
		}
	}
	if minimal {
		return false
	}
	budget := a.Beta * a.Ref.Power()
	const tol = 1e-9
	switch proc {
	case SCRAP:
		cp := a.CriticalPathLength()
		if cp <= 0 {
			return false
		}
		return a.TotalArea()/cp > budget*(1+tol)
	case SCRAPMAX:
		sets := a.Graph.LevelSets()
		if len(a.powers) != len(sets) {
			a.powers = make([]float64, len(sets))
		}
		a.levelPowersInto(a.powers, sets)
		for _, p := range a.powers {
			if p > budget*(1+tol) {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("alloc: unknown procedure %d", int(proc)))
	}
}
