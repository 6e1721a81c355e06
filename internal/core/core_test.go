package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ptgsched/internal/core"
	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
	"ptgsched/internal/trace"
)

func batch(n int, seed int64) []*dag.Graph {
	r := rand.New(rand.NewSource(seed))
	gs := make([]*dag.Graph, n)
	for i := range gs {
		gs[i] = daggen.Generate(daggen.FamilyRandom, r)
	}
	return gs
}

func TestSchedulePipelineEndToEnd(t *testing.T) {
	sched := core.New(platform.Rennes())
	gs := batch(4, 1)
	res := sched.Schedule(gs, strategy.ES())
	if len(res.Betas) != 4 || len(res.Allocations) != 4 {
		t.Fatalf("betas/allocations = %d/%d, want 4/4", len(res.Betas), len(res.Allocations))
	}
	for i, b := range res.Betas {
		if b != 0.25 {
			t.Errorf("ES beta[%d] = %g, want 0.25", i, b)
		}
	}
	if err := trace.Validate(res.Schedule); err != nil {
		t.Fatal(err)
	}
	if res.GlobalMakespan() <= 0 {
		t.Fatal("non-positive simulated makespan")
	}
	for i := range gs {
		if res.Makespan(i) <= 0 || res.Makespan(i) > res.GlobalMakespan() {
			t.Errorf("app %d makespan %g out of range", i, res.Makespan(i))
		}
	}
}

func TestScheduleAloneIsNoSlowerThanShared(t *testing.T) {
	sched := core.New(platform.Lille())
	gs := batch(6, 2)
	res := sched.Schedule(gs, strategy.ES())
	for i, g := range gs {
		own := sched.ScheduleAlone(g)
		if own > res.Makespan(i)*1.05 {
			t.Errorf("app %d: alone %g clearly slower than shared %g", i, own, res.Makespan(i))
		}
	}
}

func TestEvaluateComputesPaperMetrics(t *testing.T) {
	sched := core.New(platform.Sophia())
	gs := batch(4, 3)
	res := sched.Schedule(gs, strategy.WPS(strategy.Work, 0.7))
	own := make([]float64, len(gs))
	for i, g := range gs {
		own[i] = sched.ScheduleAlone(g)
	}
	ev := res.Evaluate(own)
	if len(ev.Slowdowns) != 4 {
		t.Fatalf("%d slowdowns", len(ev.Slowdowns))
	}
	for i, s := range ev.Slowdowns {
		if s <= 0 || s > 1.6 {
			t.Errorf("slowdown[%d] = %g implausible", i, s)
		}
	}
	if ev.Unfairness < 0 {
		t.Errorf("negative unfairness %g", ev.Unfairness)
	}
	if ev.Makespan != res.GlobalMakespan() {
		t.Errorf("evaluation makespan mismatch")
	}
}

func TestEvaluateRejectsWrongLength(t *testing.T) {
	sched := core.New(platform.Lille())
	res := sched.Schedule(batch(2, 4), strategy.S())
	defer func() {
		if recover() == nil {
			t.Error("wrong-length own slice accepted")
		}
	}()
	res.Evaluate([]float64{1})
}

func TestEmptyBatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty batch accepted")
		}
	}()
	core.New(platform.Lille()).Schedule(nil, strategy.S())
}

// Property: for every strategy the pipeline yields a valid schedule, and
// constrained strategies never give an application more than the selfish
// strategy's share.
func TestStrategiesProperty(t *testing.T) {
	sites := platform.Grid5000Sites()
	f := func(seed int64, n uint8) bool {
		pf := sites[int(uint64(seed)%4)]
		sched := core.New(pf)
		gs := batch(int(n%3)+2, seed)
		for _, strat := range strategy.PaperSet(daggen.FamilyRandom) {
			res := sched.Schedule(gs, strat)
			if err := trace.Validate(res.Schedule); err != nil {
				t.Logf("seed %d strategy %s: %v", seed, strat, err)
				return false
			}
			for _, b := range res.Betas {
				if b <= 0 || b > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// TestScheduleBatchMatchesSeparateCalls holds the single allocation pass
// to the separate entry points: M_own equals ScheduleAlone, and every
// strategy's result equals Schedule's — allocations, per-application and
// global makespans, bit for bit — across families, sites and one scratch
// reused for every batch.
func TestScheduleBatchMatchesSeparateCalls(t *testing.T) {
	sc := core.NewScratch()
	for seed := int64(0); seed < 6; seed++ {
		fam := daggen.Family(seed % 3)
		r := rand.New(rand.NewSource(seed))
		gs := make([]*dag.Graph, 2+int(seed)%4)
		for i := range gs {
			gs[i] = daggen.Generate(fam, r)
		}
		pf := platform.Grid5000Sites()[seed%4]
		sched := core.New(pf)
		strats := strategy.PaperSet(fam)
		calls := 0
		sched.ScheduleBatch(sc, gs, strats, func(k int, res *core.Result, own []float64) {
			if k != calls {
				t.Fatalf("seed %d: strategy %d delivered as call %d", seed, k, calls)
			}
			calls++
			for i, g := range gs {
				if want := sched.ScheduleAlone(g); own[i] != want {
					t.Fatalf("seed %d: M_own[%d] = %v, ScheduleAlone %v", seed, i, own[i], want)
				}
			}
			want := sched.Schedule(gs, strats[k])
			if res.Strategy != strats[k] || res.GlobalMakespan() != want.GlobalMakespan() {
				t.Fatalf("seed %d %s: makespan %v, Schedule %v", seed, strats[k], res.GlobalMakespan(), want.GlobalMakespan())
			}
			for i := range gs {
				if res.Betas[i] != want.Betas[i] || res.Makespan(i) != want.Makespan(i) {
					t.Fatalf("seed %d %s app %d: β %v makespan %v, Schedule β %v makespan %v",
						seed, strats[k], i, res.Betas[i], res.Makespan(i), want.Betas[i], want.Makespan(i))
				}
				for id, p := range res.Allocations[i].Procs {
					if p != want.Allocations[i].Procs[id] {
						t.Fatalf("seed %d %s app %d task %d: %d procs, Schedule %d", seed, strats[k], i, id, p, want.Allocations[i].Procs[id])
					}
				}
			}
		})
		if calls != len(strats) {
			t.Fatalf("seed %d: %d strategy results for %d strategies", seed, calls, len(strats))
		}
	}
}
