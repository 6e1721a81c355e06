package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ptgsched/internal/alloc"
	"ptgsched/internal/core"
	"ptgsched/internal/events"
	"ptgsched/internal/mapping"
	"ptgsched/internal/metrics"
	"ptgsched/internal/online"
	"ptgsched/internal/platform"
	"ptgsched/internal/scenario"
	"ptgsched/internal/simexec"
	"ptgsched/internal/workload"
)

// campaign is a sweep workload: rounds of one campaign spec, each drawn
// from its own seed, swept through the scenario engine until the run
// length has passed.
type campaign struct {
	// spec returns the campaign of one round.
	spec func(seed int64) scenario.Spec
	// rebuild recomputes one point from layer calls, recording a span per
	// call under root. It must reproduce the sweep's result bit for bit.
	rebuild func(t *Trace, root int, e *scenario.Expansion, p scenario.Point, w *rebuildWorker) scenario.PointResult
	// digest is the expected digest of round 0's index-sorted results at
	// defaultSeed.
	digest string
}

// staticPaper is the paper's static Figs. 3–5 campaign: the random, FFT
// and Strassen families under their paper strategy sets, on the four
// Grid'5000 sites, with 2 to 10 concurrent PTGs.
var staticPaper = campaign{
	spec: func(seed int64) scenario.Spec {
		return scenario.Spec{
			Name: "static-paper", Seed: seed, Reps: 2, NPTGs: []int{2, 4, 6, 8, 10},
			Families: []scenario.FamilySpec{{Family: "random"}, {Family: "fft"}, {Family: "strassen"}},
		}
	},
	rebuild: rebuildStatic,
	digest:  "6224a25e9ef5bc4f9e539e5cad73830a8dca6e1ed960964f5677a4fe6a5c05c3",
}

// dynamicFailures sweeps small points through the events engine: burst
// and Poisson arrivals, MTTF/MTTR failures of one cluster, a cancelled
// and resubmitted application, under both rescheduling policies.
var dynamicFailures = campaign{
	spec: func(seed int64) scenario.Spec {
		return scenario.Spec{
			Name: "dynamic-failures", Seed: seed, Reps: 2, NPTGs: []int{2, 4},
			Families: []scenario.FamilySpec{{Family: "random", Tasks: scenario.Ints{10},
				Widths: scenario.Floats{0.5}, Regularities: scenario.Floats{0.8},
				Densities: scenario.Floats{0.2, 0.8}, Jumps: scenario.Ints{2}}},
			Strategies: []scenario.StrategySpec{{Name: "S"}, {Name: "ES"}, {Name: "WPS-work"}},
			Online:     &scenario.OnlineSpec{Processes: []string{"burst", "poisson"}, Rates: scenario.Floats{0.5}},
			Events: &events.Spec{
				Failures: []events.FailureSpec{{Cluster: 0, MTTF: 500, MTTR: 120, Count: 2}},
				Cancels:  []events.CancelSpec{{App: 0, At: 100, ResubmitAfter: 50}},
				Policies: []string{"restart", "checkpoint"},
			},
		}
	},
	rebuild: rebuildDynamic,
	digest:  "230300f847aed9f4e0a5bab9879b4ea05b87799a98793f0dc82dafc19fcb89f7",
}

func runStaticPaper(r *Run) error     { return runCampaign(r, staticPaper) }
func runDynamicFailures(r *Run) error { return runCampaign(r, dynamicFailures) }

// expandSpec takes a spec through its JSON wire form, as a campaign file
// would, and expands it.
func expandSpec(s scenario.Spec) (*scenario.Expansion, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	spec, err := scenario.ParseSpec(b)
	if err != nil {
		return nil, err
	}
	return scenario.Expand(spec)
}

// latMemo is a memo that never hits: the sweep calls Lookup just before it
// computes a point and Publish just after, which times every point
// without touching the engine. Each point writes only its own slots.
type latMemo struct {
	epoch      time.Time
	start, end []int64
}

func (m *latMemo) Lookup(p scenario.Point) (scenario.PointResult, bool) {
	m.start[p.Index] = int64(time.Since(m.epoch))
	return scenario.PointResult{}, false
}

func (m *latMemo) Publish(p scenario.Point, _ scenario.PointResult) {
	m.end[p.Index] = int64(time.Since(m.epoch))
}

// sweep runs every point of e over workers through the scenario engine,
// streaming each result into a JSONL sink and the aggregator as a
// campaign run does. Results and per-point latencies (ms) come back
// indexed by point.
func sweep(e *scenario.Expansion, workers int) ([]scenario.PointResult, []float64, error) {
	n := e.NumPoints()
	memo := &latMemo{epoch: time.Now(), start: make([]int64, n), end: make([]int64, n)}
	results := make([]scenario.PointResult, n)
	seen := make([]bool, n)
	agg := e.NewAggregator()
	var sink bytes.Buffer
	var buf []byte
	err := e.RunEachMemo(e.All(), workers, memo, func(pr scenario.PointResult) error {
		if pr.Index < 0 || pr.Index >= n || seen[pr.Index] {
			return fmt.Errorf("sweep emitted point %d twice or out of range", pr.Index)
		}
		seen[pr.Index] = true
		results[pr.Index] = pr
		var err error
		if buf, err = scenario.AppendJSONL(buf[:0], pr); err != nil {
			return err
		}
		sink.Write(buf)
		return agg.Add(pr)
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := agg.Tables(); err != nil {
		return nil, nil, err
	}
	lat := make([]float64, n)
	for i := range n {
		lat[i] = float64(memo.end[i]-memo.start[i]) / 1e6
	}
	return results, lat, nil
}

// checkPoint validates one result against its point: identity, one
// finite value per strategy, non-negative measurements.
func checkPoint(e *scenario.Expansion, pr scenario.PointResult) error {
	p := e.PointAt(pr.Index)
	if pr.Cell != p.Cell || pr.Name != p.Name {
		return fmt.Errorf("point %d: identity (%d, %q), want (%d, %q)", pr.Index, pr.Cell, pr.Name, p.Cell, p.Name)
	}
	ns := len(e.Cells[p.Cell].Config.Strategies)
	if len(pr.Makespan) != ns || len(pr.Unfairness) != ns || len(pr.Rel) != ns {
		return fmt.Errorf("point %d: %d/%d/%d values for %d strategies", pr.Index, len(pr.Makespan), len(pr.Unfairness), len(pr.Rel), ns)
	}
	for s := range ns {
		for _, v := range []float64{pr.Makespan[s], pr.Unfairness[s], pr.Rel[s]} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("point %d: value %g for strategy %d", pr.Index, v, s)
			}
		}
	}
	return nil
}

func runCampaign(r *Run, c campaign) error {
	var e0 *scenario.Expansion
	setup, err := setupMedian(func(int) error {
		e, err := expandSpec(c.spec(mix(r.Seed, 0)))
		if err != nil {
			return err
		}
		// Warm up on every fourth point through the same engine.
		n := e.NumPoints()
		warm := scenario.IndexSet{Limit: n, Stride: 4}
		if err := e.RunEach(warm, r.Workers, func(scenario.PointResult) error { return nil }); err != nil {
			return err
		}
		e0 = e
		return nil
	})
	if err != nil {
		return err
	}
	r.E2E["setup_s"] = setup

	var (
		lat    Dist
		exps   []*scenario.Expansion
		rounds [][]scenario.PointResult
		lats   [][]float64
		points int
		roundS []float64
	)
	a0 := heapAllocs()
	start := time.Now()
	for round := 0; ; round++ {
		e := e0
		if round > 0 {
			if e, err = expandSpec(c.spec(mix(r.Seed, uint64(round)))); err != nil {
				return err
			}
		}
		rt := time.Now()
		res, pl, err := sweep(e, r.Workers)
		roundS = append(roundS, float64(e.NumPoints())/time.Since(rt).Seconds())
		points += e.NumPoints()
		r.Attempted += e.NumPoints()
		if err != nil {
			r.Failed += e.NumPoints()
			r.Fail("round %d: sweep: %v", round, err)
		} else {
			exps = append(exps, e)
			rounds = append(rounds, res)
			lats = append(lats, pl)
			for _, ms := range pl {
				lat.Add(ms)
			}
		}
		if r.Deadline(start, lat.N()) {
			break
		}
	}
	allocs := heapAllocs() - a0
	// Every round has the same shape, so the median round resists the
	// slow spells of a shared machine better than the run's mean does.
	r.E2E["points_per_s"] = median(roundS)
	r.E2E["allocs_per_point"] = float64(allocs) / float64(points)
	r.SetPct(r.E2E, "latency_ms", &lat)
	r.SetPct(r.Layer, "scenario.point_ms", &lat)
	r.Meta["rounds"] = len(rounds)
	r.Meta["round_pps"] = roundS
	r.Meta["points"] = points

	if len(rounds) == 0 {
		return nil
	}
	r.Failed += checkCampaign(r, c, exps, rounds)
	if r.Trace {
		traceCampaign(r, c, exps, rounds, lats)
	}
	return nil
}

// checkCampaign validates every result, pins round 0's digest at the
// default seed, and recomputes a spread of points one at a time outside
// the worker pool. It returns the number of failed points.
func checkCampaign(r *Run, c campaign, exps []*scenario.Expansion, rounds [][]scenario.PointResult) int {
	failed := 0
	for ri, res := range rounds {
		for _, pr := range res {
			if err := checkPoint(exps[ri], pr); err != nil {
				failed++
				r.Fail("round %d: %v", ri, err)
			}
		}
	}
	d, err := resultDigest(rounds[0])
	if err != nil {
		r.Fail("digest: %v", err)
	}
	r.Meta["digest_round0"] = d
	if r.Seed == defaultSeed && d != c.digest {
		r.Fail("round 0 digest %s, want %s", d, c.digest)
	}
	for _, ri := range []int{0, len(rounds) - 1} {
		e, n := exps[ri], exps[ri].NumPoints()
		for k := range 4 {
			i := (k*n/4 + int(mix(r.Seed, uint64(ri*8+k))%int64(n/4+1))) % n
			if want := e.RunPoint(e.PointAt(i)); !sameRecord(rounds[ri][i], want) {
				failed++
				r.Fail("round %d point %d: sweep result differs from a sequential recompute", ri, i)
			}
		}
	}
	return failed
}

// rebuildWorker is one traced goroutine's state: its span buffer, reusable
// scheduler state, and the work counts its layer calls report.
type rebuildWorker struct {
	trace  *Trace
	core   *core.Scratch
	exec   *simexec.Scratch
	scheds map[*platform.Platform]*core.Scheduler
	cnt    layerCounts
}

// layerCounts are the work counts of layer calls.
type layerCounts struct {
	growthSteps, placements, daggenTasks             int
	rebalances, reschedules, eventsApplied, onlinePl int
}

func (a *layerCounts) add(b layerCounts) {
	a.growthSteps += b.growthSteps
	a.placements += b.placements
	a.daggenTasks += b.daggenTasks
	a.rebalances += b.rebalances
	a.reschedules += b.reschedules
	a.eventsApplied += b.eventsApplied
	a.onlinePl += b.onlinePl
}

func (w *rebuildWorker) scheduler(pf *platform.Platform) *core.Scheduler {
	s := w.scheds[pf]
	if s == nil {
		s = core.New(pf)
		w.scheds[pf] = s
	}
	return s
}

// rebuildStatic recomputes a static point in core.Schedule's order:
// materialize the batch, M_own per graph, then per strategy β → SCRAP-MAX
// per graph → mapping → simulated execution → slowdowns and unfairness.
func rebuildStatic(t *Trace, root int, e *scenario.Expansion, p scenario.Point, w *rebuildWorker) scenario.PointResult {
	c := e.Cells[p.Cell]
	sp := t.Begin("daggen", root)
	pf, graphs, _ := e.Materialize(p)
	t.End(sp)
	for _, g := range graphs {
		w.cnt.daggenTasks += len(g.Tasks)
	}
	sched := w.scheduler(pf)
	own := make([]float64, len(graphs))
	for i, g := range graphs {
		sp := t.Begin("core.own", root)
		own[i] = sched.ScheduleAloneWith(w.core, g)
		t.End(sp)
	}
	ref := pf.ReferenceCluster()
	ns := len(c.Config.Strategies)
	out := scenario.PointResult{Index: p.Index, Cell: p.Cell, Name: p.Name,
		Unfairness: make([]float64, ns), Makespan: make([]float64, ns)}
	apps := make([]*alloc.Allocation, len(graphs))
	slow := make([]float64, len(graphs))
	for s, strat := range c.Config.Strategies {
		sp := t.Begin("strategy", root)
		betas := strat.Betas(graphs, ref)
		t.End(sp)
		for i, g := range graphs {
			sp := t.Begin("alloc", root)
			apps[i] = alloc.Compute(g, ref, betas[i], alloc.SCRAPMAX)
			t.End(sp)
			for _, q := range apps[i].Procs {
				w.cnt.growthSteps += q - 1
			}
		}
		sp = t.Begin("mapping", root)
		m := mapping.Map(pf, apps, mapping.Options{})
		t.End(sp)
		w.cnt.placements += len(m.Placements)
		sp = t.Begin("simexec", root)
		res := w.exec.Execute(m)
		t.End(sp)
		sp = t.Begin("metrics", root)
		for i := range slow {
			slow[i] = metrics.Slowdown(own[i], res.AppMakespans[i])
		}
		out.Unfairness[s] = metrics.Unfairness(slow)
		out.Makespan[s] = res.Makespan
		t.End(sp)
	}
	sp = t.Begin("metrics", root)
	out.Rel = metrics.RelativeMakespans(out.Makespan)
	t.End(sp)
	return out
}

// rebuildDynamic recomputes a dynamic-scenario point: the point's
// workload and event timeline, then per strategy one online run under the
// cell's rescheduling policy, reduced to flow-time unfairness and guarded
// relative makespans.
func rebuildDynamic(t *Trace, root int, e *scenario.Expansion, p scenario.Point, w *rebuildWorker) scenario.PointResult {
	c := e.Cells[p.Cell]
	process, rate := workload.Burst, 0.0
	if c.Online != nil {
		process, rate = c.Online.Process, c.Online.Rate
	}
	sp := t.Begin("workload", root)
	arrivals := workload.Generate(workload.Spec{Family: c.Family, Count: p.NPTGs,
		Process: process, Rate: rate, Gen: c.Config.Gen}, rand.New(rand.NewSource(p.Seed)))
	t.End(sp)
	sp = t.Begin("events", root)
	timeline := e.TimelineFor(p)
	t.End(sp)
	policy, err := online.PolicyByName(c.Policy)
	if err != nil {
		panic(err) // the spec was validated at expansion
	}
	pf := e.Platforms[p.Platform]
	ns := len(c.Config.Strategies)
	out := scenario.PointResult{Index: p.Index, Cell: p.Cell, Name: p.Name,
		Unfairness: make([]float64, ns), Makespan: make([]float64, ns)}
	for s, strat := range c.Config.Strategies {
		sp := t.Begin("online", root)
		res := online.Schedule(pf, arrivals, online.Options{Strategy: strat, Timeline: timeline, Policy: policy})
		t.End(sp)
		w.cnt.rebalances += res.Rebalances
		w.cnt.reschedules += res.Reschedules
		w.cnt.eventsApplied += res.EventsApplied
		w.cnt.onlinePl += len(res.Placements)
		sp = t.Begin("metrics", root)
		flows := make([]float64, 0, len(res.Apps))
		for i, app := range res.Apps {
			if res.Cancelled != nil && res.Cancelled[i] {
				continue
			}
			flows = append(flows, app.FlowTime())
		}
		out.Makespan[s] = res.Makespan
		out.Unfairness[s] = flowUnfairness(flows)
		t.End(sp)
	}
	sp = t.Begin("metrics", root)
	out.Rel = guardedRel(out.Makespan)
	t.End(sp)
	return out
}

// flowUnfairness is the scenario engine's dynamic unfairness: flow times
// normalized by their mean, absolute deviations from 1 summed.
func flowUnfairness(flows []float64) float64 {
	mean := metrics.Mean(flows)
	if mean <= 0 {
		return 0
	}
	u := 0.0
	for _, f := range flows {
		u += math.Abs(f/mean - 1)
	}
	return u
}

// guardedRel is the scenario engine's relative makespan for dynamic
// points: against the smallest positive makespan, 1 when none is positive
// and 0 for a zero makespan.
func guardedRel(mk []float64) []float64 {
	best := math.Inf(1)
	for _, m := range mk {
		if m > 0 && m < best {
			best = m
		}
	}
	rel := make([]float64, len(mk))
	for i, m := range mk {
		switch {
		case math.IsInf(best, 1):
			rel[i] = 1
		case m <= 0:
			rel[i] = 0
		default:
			rel[i] = m / best
		}
	}
	return rel
}

// traceCampaign rebuilds the swept points from layer calls over the same
// worker count for one run length, checks every rebuilt point against the
// sweep bit for bit, and reports the per-layer metrics. The tracing
// overhead compares the rebuilt points' traced time with the time the
// untraced sweep spent on the same points.
func traceCampaign(r *Run, c campaign, exps []*scenario.Expansion, rounds [][]scenario.PointResult, lats [][]float64) {
	type ref struct{ round, index int }
	var todo []ref
	for ri, res := range rounds {
		for i := range res {
			todo = append(todo, ref{ri, i})
		}
	}
	epoch := time.Now()
	var (
		next, mismatches atomic.Int64
		wg               sync.WaitGroup
	)
	ws := make([]*rebuildWorker, r.Workers)
	for k := range ws {
		ws[k] = &rebuildWorker{trace: NewTrace(epoch), core: core.NewScratch(),
			exec: simexec.NewScratch(), scheds: map[*platform.Platform]*core.Scheduler{}}
		wg.Add(1)
		go func(w *rebuildWorker) {
			defer wg.Done()
			for time.Since(epoch) < r.Seconds {
				j := int(next.Add(1)) - 1
				if j >= len(todo) {
					return
				}
				e := exps[todo[j].round]
				root := w.trace.Begin("point", -1)
				got := c.rebuild(w.trace, root, e, e.PointAt(todo[j].index), w)
				w.trace.End(root)
				if !sameRecord(got, rounds[todo[j].round][todo[j].index]) {
					mismatches.Add(1)
				}
			}
		}(ws[k])
	}
	wg.Wait()
	rebuilt := min(int(next.Load()), len(todo))

	traces := make([]*Trace, len(ws))
	var cnt layerCounts
	for k, w := range ws {
		traces[k] = w.trace
		cnt.add(w.cnt)
	}
	r.Meta["rebuilt_points"] = rebuilt
	r.Meta["rebuild_mismatches"] = mismatches.Load()
	if mismatches.Load() > 0 {
		r.Fail("traced rebuild differs from the sweep on %d of %d points", mismatches.Load(), rebuilt)
	}
	layers, rootNS := Summarize(traces)
	PrintShares(r.Out, r.Workload, layers, rootNS)
	setLayerMetrics(r, layers, rootNS, cnt)
	untracedMS := 0.0
	for _, t := range todo[:rebuilt] {
		untracedMS += lats[t.round][t.index]
	}
	r.Layer["bench.trace_overhead"] = float64(rootNS)/1e6/untracedMS - 1

	// The sweep's own stages after compute: the JSONL wire encoding and
	// the aggregation into tables, over every result of the run.
	var buf []byte
	records := 0
	t0 := time.Now()
	for _, res := range rounds {
		for _, pr := range res {
			buf, _ = scenario.AppendJSONL(buf[:0], pr)
			records++
		}
	}
	r.Layer["scenario.jsonl_ns_per_record"] = float64(time.Since(t0).Nanoseconds()) / float64(records)
	t0 = time.Now()
	for ri, res := range rounds {
		agg := exps[ri].NewAggregator()
		for _, pr := range res {
			if err := agg.Add(pr); err != nil {
				r.Fail("aggregate: %v", err)
			}
		}
		if _, err := agg.Tables(); err != nil {
			r.Fail("aggregate: %v", err)
		}
	}
	r.Layer["scenario.aggregate_busy_s"] = time.Since(t0).Seconds()
}

// setLayerMetrics turns span statistics and work counts into the
// per-layer metrics of the scheduling layers.
func setLayerMetrics(r *Run, layers map[string]*LayerStats, rootNS int64, cnt layerCounts) {
	get := func(name string) *LayerStats {
		if ls := layers[name]; ls != nil {
			return ls
		}
		return &LayerStats{}
	}
	busy := func(ls *LayerStats) float64 { return float64(ls.SelfNS) / 1e9 }
	share := func(ls *LayerStats) float64 {
		if rootNS == 0 {
			return 0
		}
		return float64(ls.SelfNS) / float64(rootNS)
	}
	per := func(ns int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	pct := func(ls *LayerStats, p, unit float64) float64 {
		v, _ := ls.Dur.Pct(p)
		return v / unit
	}
	L := r.Layer
	a := get("alloc")
	L["alloc.calls"], L["alloc.busy_s"], L["alloc.share"] = float64(a.Calls), busy(a), share(a)
	L["alloc.us_p50"], L["alloc.us_p99"] = pct(a, 0.5, 1e3), pct(a, 0.99, 1e3)
	L["alloc.growth_steps"] = float64(cnt.growthSteps)
	L["alloc.ns_per_step"] = per(a.SelfNS, cnt.growthSteps)
	r.Samples["alloc.us"] = a.Dur.N()
	o := get("core.own")
	L["core.own_calls"], L["core.own_busy_s"], L["core.own_share"] = float64(o.Calls), busy(o), share(o)
	m := get("mapping")
	L["mapping.calls"], L["mapping.busy_s"], L["mapping.placements"] = float64(m.Calls), busy(m), float64(cnt.placements)
	L["mapping.ns_per_placement"] = per(m.SelfNS, cnt.placements)
	x := get("simexec")
	L["simexec.calls"], L["simexec.busy_s"], L["simexec.tasks"] = float64(x.Calls), busy(x), float64(cnt.placements)
	L["simexec.ns_per_task"] = per(x.SelfNS, cnt.placements)
	s := get("strategy")
	L["strategy.calls"], L["strategy.busy_s"] = float64(s.Calls), busy(s)
	L["metrics.busy_s"] = busy(get("metrics"))
	L["daggen.busy_s"], L["daggen.tasks"] = busy(get("daggen")), float64(cnt.daggenTasks)
	on := get("online")
	L["online.calls"], L["online.busy_s"] = float64(on.Calls), busy(on)
	L["online.ms_p50"], L["online.ms_p99"] = pct(on, 0.5, 1e6), pct(on, 0.99, 1e6)
	r.Samples["online.ms"] = on.Dur.N()
	L["online.rebalances"] = float64(cnt.rebalances)
	L["online.us_per_rebalance"] = per(on.SelfNS, cnt.rebalances) / 1e3
	L["online.reschedules"], L["online.events_applied"] = float64(cnt.reschedules), float64(cnt.eventsApplied)
	L["online.placements"] = float64(cnt.onlinePl)
	L["events.busy_s"], L["workload.busy_s"] = busy(get("events")), busy(get("workload"))
}
