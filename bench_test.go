// Benchmarks: one per table/figure of the paper's evaluation plus the
// mapping/ordering/packing ablations. Each figure bench runs a reduced-size
// campaign (1 combination per point on one platform — the full 25×4
// campaign is regenerated by `ptgbench -experiment fig2..fig5`, see the
// cmd/ptgbench doc comment); the bench measures the cost of the complete
// pipeline that produces the figure.
//
// The figure and scale benchmarks delegate to internal/benchsuite, the
// same suite `ptgbench -experiment bench -json` runs to regenerate
// BENCH_mapping.json; PERFORMANCE.md documents the methodology and the
// frozen seed baseline these numbers are compared against.
package ptgsched_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"ptgsched"
	"ptgsched/internal/alloc"
	"ptgsched/internal/benchsuite"
	"ptgsched/internal/daggen"
	"ptgsched/internal/mapping"
	"ptgsched/internal/simexec"
	"ptgsched/internal/strategy"
)

// benchCampaign shrinks a figure config to benchmark size.
func benchCampaign(b *testing.B, cfg ptgsched.ExperimentConfig) {
	b.Helper()
	benchsuite.Campaign(b, cfg)
}

// BenchmarkTable1Platforms regenerates Table 1: the four Grid'5000 subsets
// and their derived properties (§2).
func BenchmarkTable1Platforms(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, pf := range ptgsched.Grid5000Sites() {
			total += pf.TotalProcs()
			_ = pf.TotalPower()
			_ = pf.Heterogeneity()
		}
		if total != 99+167+229+180 {
			b.Fatal("platform inventory mismatch")
		}
	}
}

// BenchmarkFig1Ordering runs the two-PTG illustration of §5 under both
// orderings.
func BenchmarkFig1Ordering(b *testing.B) {
	pf := ptgsched.NewPlatform("fig1", true, ptgsched.ClusterSpec{Name: "c0", Procs: 2, Speed: 1})
	mk := func(name string, works ...float64) *ptgsched.Graph {
		g := ptgsched.NewGraph(name)
		var prev *ptgsched.Task
		for _, w := range works {
			t := g.AddTask(name, 1, w, 0)
			if prev != nil {
				g.MustAddEdge(prev, t, 0)
			}
			prev = t
		}
		return g
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, ordering := range []ptgsched.MapOptions{
			{Ordering: ptgsched.GlobalOrdering},
			{Ordering: ptgsched.ReadyTasksOrdering},
		} {
			sched := ptgsched.NewScheduler(pf)
			sched.MapOptions = ordering
			res := sched.Schedule([]*ptgsched.Graph{mk("big", 10, 5), mk("small", 2, 2)}, ptgsched.ES())
			if res.GlobalMakespan() <= 0 {
				b.Fatal("empty schedule")
			}
		}
	}
}

// BenchmarkFig2MuSweepWPSWork regenerates the µ sweep of Figure 2.
func BenchmarkFig2MuSweepWPSWork(b *testing.B) {
	benchCampaign(b, ptgsched.Fig2Config(42, 1))
}

// BenchmarkFig3RandomPTGs regenerates the 8-strategy comparison on random
// PTGs of Figure 3.
func BenchmarkFig3RandomPTGs(b *testing.B) {
	benchCampaign(b, ptgsched.Fig3Config(42, 1))
}

// BenchmarkFig4FFTPTGs regenerates the FFT comparison of Figure 4.
func BenchmarkFig4FFTPTGs(b *testing.B) {
	benchCampaign(b, ptgsched.Fig4Config(42, 1))
}

// BenchmarkFig5StrassenPTGs regenerates the Strassen comparison of Figure 5.
func BenchmarkFig5StrassenPTGs(b *testing.B) {
	benchCampaign(b, ptgsched.Fig5Config(42, 1))
}

// BenchmarkMuCalibration regenerates the per-variant µ calibration sweeps
// described in the text of §7.
func BenchmarkMuCalibration(b *testing.B) {
	benchCampaign(b, ptgsched.MuCalibrationConfig(ptgsched.Width, ptgsched.FamilyFFT, 42, 1))
}

// batchOn builds a deterministic batch of allocated-and-mapped PTGs for the
// ablation benches.
func benchBatch(n int, seed int64) []*ptgsched.Graph {
	r := rand.New(rand.NewSource(seed))
	graphs := make([]*ptgsched.Graph, n)
	for i := range graphs {
		graphs[i] = ptgsched.GeneratePTG(ptgsched.FamilyRandom, r)
	}
	return graphs
}

// BenchmarkAblationOrdering compares the cost of ready-task vs global
// ordering (ablation #1, `ptgbench -experiment ablation`).
func BenchmarkAblationOrdering(b *testing.B) {
	pf := ptgsched.Rennes()
	for _, variant := range []struct {
		name string
		opts ptgsched.MapOptions
	}{
		{"ready", ptgsched.MapOptions{}},
		{"global", ptgsched.MapOptions{Ordering: ptgsched.GlobalOrdering}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			graphs := benchBatch(6, 7)
			sched := ptgsched.NewScheduler(pf)
			sched.MapOptions = variant.opts
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sched.Schedule(graphs, ptgsched.ES()).GlobalMakespan() <= 0 {
					b.Fatal("empty schedule")
				}
			}
		})
	}
}

// BenchmarkAblationPacking compares packing on/off (ablation #2, `ptgbench -experiment ablation`).
func BenchmarkAblationPacking(b *testing.B) {
	pf := ptgsched.Sophia()
	for _, variant := range []struct {
		name string
		opts ptgsched.MapOptions
	}{
		{"packing", ptgsched.MapOptions{}},
		{"no-packing", ptgsched.MapOptions{NoPacking: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			graphs := benchBatch(6, 11)
			sched := ptgsched.NewScheduler(pf)
			sched.MapOptions = variant.opts
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sched.Schedule(graphs, ptgsched.ES()).GlobalMakespan() <= 0 {
					b.Fatal("empty schedule")
				}
			}
		})
	}
}

// BenchmarkAblationScrapVsScrapMax compares the two allocation procedures
// (ablation #3, `ptgbench -experiment ablation`) through the CPA equivalence: SCRAP is exercised
// via the CPA baseline, SCRAP-MAX via the default scheduler.
func BenchmarkAblationScrapVsScrapMax(b *testing.B) {
	pf := ptgsched.Lille()
	ref := pf.ReferenceCluster()
	graphs := benchBatch(4, 13)
	b.Run("scrap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				if len(ptgsched.CPA(g, ref).Procs) == 0 {
					b.Fatal("empty allocation")
				}
			}
		}
	})
	b.Run("scrap-max", func(b *testing.B) {
		sched := ptgsched.NewScheduler(pf)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sched.Schedule(graphs, ptgsched.S()).GlobalMakespan() <= 0 {
				b.Fatal("empty schedule")
			}
		}
	})
}

// BenchmarkBaselines measures the related-work single-PTG schedulers.
func BenchmarkBaselines(b *testing.B) {
	pf := ptgsched.Nancy()
	g := benchBatch(1, 17)[0]
	b.Run("heft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ptgsched.HEFT(pf, g).GlobalMakespan() <= 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("mheft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ptgsched.MHEFT(pf, g).GlobalMakespan() <= 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("hcpa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ptgsched.HCPA(pf, g).GlobalMakespan() <= 0 {
				b.Fatal("empty")
			}
		}
	})
}

// BenchmarkOnlineDynamicSubmissions measures the §8 future-work extension:
// Poisson arrivals with constraint rebalancing on every arrival and
// completion.
func BenchmarkOnlineDynamicSubmissions(b *testing.B) {
	pf := ptgsched.Rennes()
	arrivals := ptgsched.GenerateWorkload(ptgsched.WorkloadSpec{
		Family:  ptgsched.FamilyRandom,
		Count:   8,
		Process: ptgsched.PoissonArrivals,
		Rate:    0.25,
	}, rand.New(rand.NewSource(23)))
	opts := ptgsched.OnlineOptions{Strategy: ptgsched.WPS(ptgsched.Work, 0.7)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ptgsched.ScheduleOnline(pf, arrivals, opts)
		if res.Makespan <= 0 {
			b.Fatal("empty online schedule")
		}
	}
}

// BenchmarkMapLarge measures the mapping stage alone at production scale:
// 20 PTGs of 500 tasks each, mapped on all four Grid'5000 sites per
// iteration (allocation happens outside the timed loop). This is the
// headline number of the benchmark-regression harness (see PERFORMANCE.md).
func BenchmarkMapLarge(b *testing.B) {
	benchsuite.MapLarge(b)
}

// BenchmarkFairShare1000Flows measures one progressive-filling solve over
// 1000 flows crossing a 4-site-like topology of 24 links.
func BenchmarkFairShare1000Flows(b *testing.B) {
	benchsuite.FairShare1000Flows(b)
}

// BenchmarkPipelineStages isolates the cost of each stage of the paper's
// pipeline on one 10-PTG batch. alloc-own+paper-set is one static
// point's allocation work: every graph grown for M_own's β = 1 and every
// paper strategy's β from one shared log. map+execute maps and simulates
// the same allocations: each graph alone, then the batch per strategy.
func BenchmarkPipelineStages(b *testing.B) {
	pf := ptgsched.Rennes()
	graphs := benchBatch(10, 19)
	sched := ptgsched.NewScheduler(pf)
	b.Run("full-pipeline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sched.Schedule(graphs, ptgsched.WPS(ptgsched.Width, 0.5)).GlobalMakespan() <= 0 {
				b.Fatal("empty schedule")
			}
		}
	})

	ref := pf.ReferenceCluster()
	strats := strategy.PaperSet(daggen.FamilyRandom)
	// rows[i] holds graph i's constraints and allocations: β = 1, then
	// one per strategy.
	betas := make([][]float64, len(graphs))
	rows := make([][]*alloc.Allocation, len(graphs))
	for i := range graphs {
		betas[i] = []float64{1}
		for range strats {
			rows[i] = append(rows[i], &alloc.Allocation{})
		}
		rows[i] = append(rows[i], &alloc.Allocation{})
	}
	for _, st := range strats {
		for i, beta := range st.Betas(graphs, ref) {
			betas[i] = append(betas[i], beta)
		}
	}
	var gr alloc.Grower
	grow := func() {
		for i, g := range graphs {
			gr.Grow(rows[i], g, ref, betas[i], alloc.SCRAPMAX)
		}
	}
	b.Run("alloc-own+paper-set", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			grow()
		}
	})

	grow()
	exec := simexec.NewScratch()
	apps := make([]*alloc.Allocation, len(graphs))
	b.Run("map+execute", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			for i := range graphs {
				exec.Execute(mapping.Map(pf, rows[i][:1], mapping.Options{}))
			}
			for k := range strats {
				for i := range graphs {
					apps[i] = rows[i][k+1]
				}
				if exec.Execute(mapping.Map(pf, apps, mapping.Options{})).Makespan <= 0 {
					b.Fatal("empty schedule")
				}
			}
		}
	})
}

// BenchmarkFig3Campaign1Worker and BenchmarkFig3Campaign8Workers are the
// concurrent-throughput pair of the regression harness: the same Fig. 3
// campaign run sequentially and fanned out over 8 workers. Their ratio is
// the parallel speedup recorded in BENCH_mapping.json's concurrency
// section; it tracks min(8, GOMAXPROCS) on an idle machine.
func BenchmarkFig3Campaign1Worker(b *testing.B) {
	benchsuite.CampaignThroughput(b, 1)
}

func BenchmarkFig3Campaign8Workers(b *testing.B) {
	benchsuite.CampaignThroughput(b, 8)
}

// BenchmarkServiceSchedule8Clients measures the scheduling service end to
// end with 8 concurrent clients per iteration.
func BenchmarkServiceSchedule8Clients(b *testing.B) {
	benchsuite.ServiceSchedule(b, 8)
}

// BenchmarkCampaignExpand1M measures the lazy expansion of a
// one-million-point campaign spec plus O(1) random point access — the
// streaming pipeline's property that expansion cost is per-cell, not
// per-point (see PERFORMANCE.md).
func BenchmarkCampaignExpand1M(b *testing.B) {
	benchsuite.CampaignExpand1M(b)
}

// BenchmarkCampaignAggregate40kStreaming and ...Materialized contrast the
// incremental slot-based aggregation against the pre-refactor
// materialize-then-aggregate shape over 40k synthetic results; the
// "live-heap-bytes" metric is the resident-memory comparison recorded in
// BENCH_mapping.json.
func BenchmarkCampaignAggregate40kStreaming(b *testing.B) {
	benchsuite.CampaignAggregate40k(b, true)
}

func BenchmarkCampaignAggregate40kMaterialized(b *testing.B) {
	benchsuite.CampaignAggregate40k(b, false)
}

// BenchmarkFleetCoordinate3Workers measures a coordinated campaign over
// three in-process workers with a scripted mid-campaign worker death;
// the fleet-* metrics are the coordinator's robustness counters
// (retries, reassignments, worker deaths, deduplicated points) recorded
// in BENCH_mapping.json.
func BenchmarkFleetCoordinate3Workers(b *testing.B) {
	benchsuite.FleetCoordinate(b)
}

// BenchmarkStoreQueryPushdown and ...FullScan contrast the indexed
// result-query path (segment sidecars prune to matching byte runs)
// against decoding the whole store for the same selective predicate; the
// query-bytes-read / query-decoded-lines / query-bytes-total metrics are
// the pushdown evidence recorded in BENCH_mapping.json.
func BenchmarkStoreQueryPushdown(b *testing.B) {
	benchsuite.StoreQuery(b, false)
}

func BenchmarkStoreQueryFullScan(b *testing.B) {
	benchsuite.StoreQuery(b, true)
}

// BenchmarkCampaignCachedSweep measures the content-addressed result
// cache on its warm path: every iteration reopens a populated cache
// directory (re-verifying each segment's hash chain) and sweeps a whole
// campaign through it. The cache-hit-rate and cache-verify-ns/point
// metrics are recorded in BENCH_mapping.json.
func BenchmarkCampaignCachedSweep(b *testing.B) {
	benchsuite.CampaignCachedSweep(b)
}

// BenchmarkCampaignStoreAppend measures the durable store's per-point
// checkpoint overhead: one validated, JSON-marshaled, single-write append
// of a realistic Fig. 3-shaped result record (8 strategies) to an O_APPEND
// segment. PERFORMANCE.md quotes this number against the cost of computing
// a point to show the checkpoint tax of `ptgbench -campaign -store`.
func BenchmarkCampaignStoreAppend(b *testing.B) {
	spec, err := ptgsched.ParseCampaignSpec([]byte(
		`{"name":"bench","seed":1,"reps":12500,"nptgs":[2],"platforms":["lille"],"families":[{"family":"strassen"}]}`))
	if err != nil {
		b.Fatal(err)
	}
	e, err := ptgsched.ExpandCampaign(spec)
	if err != nil {
		b.Fatal(err)
	}
	// One measured record, re-stamped per point: the write cost depends on
	// the line's shape (8 strategy columns), not on which point it is.
	proto := e.RunPoint(e.PointAt(0))
	proto.Unfairness = make([]float64, 8)
	proto.Makespan = make([]float64, 8)
	proto.Rel = make([]float64, 8)
	for i := range proto.Makespan {
		proto.Unfairness[i] = 0.123456789 + float64(i)
		proto.Makespan[i] = 1234.56789 + float64(i)
		proto.Rel[i] = 1.0123456789 + float64(i)
	}

	points := e.NumPoints()
	var st *ptgsched.CampaignStore
	dir := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%points == 0 {
			b.StopTimer()
			if st != nil {
				st.Close()
			}
			dir++
			st, err = ptgsched.CreateCampaignStore(
				filepath.Join(b.TempDir(), fmt.Sprintf("store%d", dir)), e, 4)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		r := proto
		r.Index = i % points
		if err := st.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st != nil {
		st.Close()
	}
}
