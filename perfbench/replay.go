package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ptgsched/internal/cache"
	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
	"ptgsched/internal/store"
)

// replaySpec is the large campaign replay-io serves from a cache:
// 3 families × 5 NPTGs × 170 repetitions × 4 sites = 10,200 points.
func replaySpec(seed int64) scenario.Spec {
	return scenario.Spec{
		Name: "replay-io", Seed: seed, Reps: 170, NPTGs: []int{2, 4, 6, 8, 10},
		Families: []scenario.FamilySpec{{Family: "random"}, {Family: "fft"}, {Family: "strassen"}},
	}
}

// templatesPerCell is how many points per cell are really computed; every
// other record of the cell copies one of their measurements.
const templatesPerCell = 4

// replayQueries is the number of queries per round.
const replayQueries = 200

// replayShards is the store's segment count: one per sweep worker on the
// reference machine, as a two-shard campaign store would have.
const replayShards = 2

// replayFixture is what replay-io's set-up builds: the expansion, a cache
// holding a record for every point, and the queries with their expected
// answers.
type replayFixture struct {
	e        *scenario.Expansion
	cacheDir string
	// tmpl[cell] holds the really computed measurements of the cell.
	tmpl    [][]scenario.PointResult
	queries []query.Query
}

// expected returns the record published for point i.
func (f *replayFixture) expected(i int) scenario.PointResult {
	p := f.e.PointAt(i)
	t := f.tmpl[p.Cell][i%templatesPerCell]
	return scenario.PointResult{Index: i, Cell: p.Cell, Name: p.Name,
		Unfairness: t.Unfairness, Makespan: t.Makespan, Rel: t.Rel}
}

// buildReplay computes the template points, publishes a record for every
// point into a fresh cache directory, and draws the query mix.
func buildReplay(r *Run, dir string) (*replayFixture, error) {
	e, err := expandSpec(replaySpec(mix(r.Seed, 100)))
	if err != nil {
		return nil, err
	}
	f := &replayFixture{e: e, cacheDir: dir, tmpl: make([][]scenario.PointResult, len(e.Cells))}
	for ci := range e.Cells {
		lo, _ := e.CellRange(ci)
		set := scenario.IndexSet{Limit: lo + templatesPerCell, Offset: lo}
		f.tmpl[ci] = e.Run(set, r.Workers)
	}
	c, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	b := c.Bind(e)
	for i := range e.NumPoints() {
		b.Publish(e.PointAt(i), f.expected(i))
	}
	if err := c.Close(); err != nil {
		return nil, err
	}
	f.queries = replayQueryMix(e, rand.New(rand.NewSource(mix(r.Seed, 101))))
	return f, nil
}

// replayQueryMix draws the query mix. The selectivity classes are fixed
// and only positions and projections come from the seed: 8 in 20 queries
// are single-record lookups (some projected to one strategy), 8 in 20
// index ranges of 40 to 880 records, 2 in 20 family-restricted ranges of
// 400 records, and 2 in 20 ranges of 600 records inside one cell
// projected to one strategy. Every multi-record query selects at least 40
// records spread over both store segments, so whether it comes back in
// index order does not hinge on how the sweep workers interleaved.
func replayQueryMix(e *scenario.Expansion, rng *rand.Rand) []query.Query {
	n := e.NumPoints()
	label := func(ci int) string {
		ls := e.Cells[ci].Config.Labels
		return ls[rng.Intn(len(ls))]
	}
	inCell := func(w int) (ci, from int) {
		ci = rng.Intn(len(e.Cells))
		lo, hi := e.CellRange(ci)
		return ci, lo + rng.Intn(hi-lo-w+1)
	}
	qs := make([]query.Query, 0, replayQueries)
	for k := range replayQueries {
		switch c := k % 20; {
		case c < 8:
			i := rng.Intn(n)
			q := query.Query{From: i, To: i + 1}
			if c%3 == 0 {
				q.Strategy = label(e.CellOf(i))
			}
			qs = append(qs, q)
		case c < 16:
			w := 40 + 120*(c-8)
			a := rng.Intn(n - w)
			qs = append(qs, query.Query{From: a, To: a + w})
		case c < 18:
			ci, a := inCell(400)
			qs = append(qs, query.Query{Family: e.Cells[ci].Family.String(), From: a, To: a + 400})
		default:
			ci, a := inCell(600)
			qs = append(qs, query.Query{Strategy: label(ci), From: a, To: a + 600})
		}
	}
	return qs
}

// queryCheck compares one query's answer with the fixture: the selected
// records, their values, and the global index order.
type queryCheck struct {
	wrongSet, wrongValues bool
	outOfOrder            int
}

func (qc queryCheck) failed() bool { return qc.wrongSet || qc.wrongValues || qc.outOfOrder > 0 }

func (f *replayFixture) check(p *query.Plan, got []scenario.PointResult) queryCheck {
	var qc queryCheck
	idx := make([]int, len(got))
	for k, pr := range got {
		idx[k] = pr.Index
	}
	qc.outOfOrder = OrderErrors(idx)
	var want []int
	for i := p.From; i < p.To; i++ {
		if p.Matches(i) {
			want = append(want, i)
		}
	}
	sorted := append([]int(nil), idx...)
	sort.Ints(sorted)
	if len(sorted) != len(want) {
		qc.wrongSet = true
		return qc
	}
	for k := range want {
		if sorted[k] != want[k] {
			qc.wrongSet = true
			return qc
		}
	}
	for _, pr := range got {
		exp, err := p.Project(f.expected(pr.Index))
		if err != nil || !sameValues(pr, exp) {
			qc.wrongValues = true
		}
	}
	return qc
}

// replayRound is one timed round: open the cache (verifying its chain),
// sweep every point into a fresh store with all lookups hitting, sync,
// then answer the query mix from a read-only handle.
type replayRound struct {
	pointsTime time.Duration
	queryLat   []time.Duration
	checks     []queryCheck
	stats      []store.QueryStats
	hits       uint64
	verifyFail uint64
	// Traced rounds only.
	openTime, syncTime time.Duration
	lookups, appends   Dist
	bytes              int64
	compile            Dist
}

func (f *replayFixture) round(workers int, dir string, traced bool) (*replayRound, error) {
	defer os.RemoveAll(dir)
	out := &replayRound{}
	t0 := time.Now()
	c, err := cache.Open(f.cacheDir)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	out.openTime = time.Since(t0)
	st, err := store.Create(dir, f.e, replayShards)
	if err != nil {
		return nil, err
	}
	if traced {
		err = tracedSweep(st, c.Bind(f.e), f.e, workers, out)
	} else {
		st.UseMemo(c.Bind(f.e))
		var ran int
		ran, _, err = st.Sweep(f.e.All(), workers)
		if err == nil && ran != f.e.NumPoints() {
			err = fmt.Errorf("sweep ran %d of %d points", ran, f.e.NumPoints())
		}
	}
	if err != nil {
		st.Close()
		return nil, err
	}
	t1 := time.Now()
	if err := st.Sync(); err != nil {
		st.Close()
		return nil, err
	}
	out.syncTime = time.Since(t1)
	if err := st.Close(); err != nil {
		return nil, err
	}
	out.pointsTime = time.Since(t0)
	cs := c.Stats()
	out.hits, out.verifyFail = cs.Hits, cs.VerifyFailures
	if traced {
		segs, _ := filepath.Glob(filepath.Join(dir, "segment-*.jsonl"))
		for _, s := range segs {
			if fi, err := os.Stat(s); err == nil {
				out.bytes += fi.Size()
			}
		}
	}

	ro, err := store.OpenRead(dir, f.e)
	if err != nil {
		return nil, err
	}
	var got []scenario.PointResult
	collect := func(pr scenario.PointResult) error {
		got = append(got, pr)
		return nil
	}
	for _, q := range f.queries {
		got = got[:0]
		tq := time.Now()
		plan, err := query.CompileCached(f.e, q)
		if err != nil {
			return nil, err
		}
		qs, err := ro.Query(plan, collect)
		if err != nil {
			return nil, err
		}
		out.queryLat = append(out.queryLat, time.Since(tq))
		out.stats = append(out.stats, qs)
		out.checks = append(out.checks, f.check(plan, got))
		if traced {
			tc := time.Now()
			if _, err := query.Compile(f.e, q); err != nil {
				return nil, err
			}
			out.compile.AddDur(time.Since(tc), time.Microsecond)
		}
	}
	return out, nil
}

// tracedSweep is Store.Sweep rebuilt from layer calls — a cache lookup,
// then a store append, per point over the same worker count — timing each
// call.
func tracedSweep(st *store.Store, b *cache.Bound, e *scenario.Expansion, workers int, out *replayRound) error {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
	)
	n := e.NumPoints()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lk, ap Dist
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				p := e.PointAt(i)
				t0 := time.Now()
				pr, ok := b.Lookup(p)
				t1 := time.Now()
				lk.AddDur(t1.Sub(t0), time.Microsecond)
				if !ok {
					pr = e.RunPoint(p)
				}
				t2 := time.Now()
				err := st.Append(pr)
				ap.AddDur(time.Since(t2), time.Microsecond)
				if err != nil {
					mu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
					break
				}
			}
			mu.Lock()
			out.lookups.Merge(&lk)
			out.appends.Merge(&ap)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return firstEr
}

func runReplayIO(r *Run) error {
	var f *replayFixture
	setup, err := setupMedian(func(rep int) error {
		dir := filepath.Join(r.WorkDir, fmt.Sprintf("cache-%d", rep))
		var err error
		f, err = buildReplay(r, dir)
		return err
	})
	if err != nil {
		return err
	}
	r.E2E["setup_s"] = setup
	n := f.e.NumPoints()

	var (
		qlat         Dist
		points       int
		roundPPS     []float64
		queryFails   int
		orderFails   int
		lastOrderErr int
	)
	tally := func(rr *replayRound) {
		points += n
		roundPPS = append(roundPPS, float64(n)/rr.pointsTime.Seconds())
		r.Attempted += n + len(rr.checks)
		if rr.hits != uint64(n) || rr.verifyFail != 0 {
			r.Fail("cache served %d of %d points with %d verify failures", rr.hits, n, rr.verifyFail)
		}
		for k, qc := range rr.checks {
			qlat.AddDur(rr.queryLat[k], time.Millisecond)
			if !qc.failed() {
				continue
			}
			r.Failed++
			queryFails++
			if qc.wrongSet || qc.wrongValues {
				r.Fail("query %v: wrong record set or values", f.queries[k])
			} else {
				orderFails++
				lastOrderErr = k
			}
		}
	}
	a0 := heapAllocs()
	start := time.Now()
	for round := 0; ; round++ {
		rr, err := f.round(r.Workers, filepath.Join(r.WorkDir, fmt.Sprintf("store-%d", round)), false)
		if err != nil {
			return fmt.Errorf("replay round %d: %w", round, err)
		}
		tally(rr)
		if r.Deadline(start, qlat.N()) {
			break
		}
	}
	allocs := heapAllocs() - a0
	// The median round, as for the campaign workloads.
	pps := median(roundPPS)
	r.E2E["points_per_s"] = pps
	r.E2E["allocs_per_point"] = float64(allocs) / float64(points)
	r.SetPct(r.E2E, "latency_ms", &qlat)
	r.Meta["points"] = points
	r.Meta["round_pps"] = roundPPS
	r.Meta["queries"] = qlat.N()
	r.Meta["query_failures"] = queryFails
	r.Meta["query_order_failures"] = orderFails
	if orderFails > 0 {
		r.Meta["query_order_example"] = f.queries[lastOrderErr].String()
	}
	if r.Trace {
		return traceReplay(r, f, pps)
	}
	return nil
}

// traceReplay runs traced rounds for one run length and reports the cache,
// store and query layer metrics.
func traceReplay(r *Run, f *replayFixture, untracedPPS float64) error {
	var (
		lookups, appends, compile Dist
		openS, syncMS             []float64
		bytes                     int64
		roundPPS                  []float64
		hits                      uint64
		verifyFail                uint64
		qs                        store.QueryStats
		nq, outOfOrder            int
	)
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < r.Seconds; round++ {
		rr, err := f.round(r.Workers, filepath.Join(r.WorkDir, fmt.Sprintf("traced-%d", round)), true)
		if err != nil {
			return fmt.Errorf("traced replay round %d: %w", round, err)
		}
		lookups.Merge(&rr.lookups)
		appends.Merge(&rr.appends)
		compile.Merge(&rr.compile)
		openS = append(openS, rr.openTime.Seconds())
		syncMS = append(syncMS, float64(rr.syncTime.Microseconds())/1e3)
		bytes = rr.bytes
		roundPPS = append(roundPPS, float64(f.e.NumPoints())/rr.pointsTime.Seconds())
		hits += rr.hits
		verifyFail += rr.verifyFail
		for k, s := range rr.stats {
			nq++
			qs.BytesRead += s.BytesRead
			qs.BytesTotal += s.BytesTotal
			qs.LinesDecoded += s.LinesDecoded
			qs.Emitted += s.Emitted
			qs.RunsMatched += s.RunsMatched
			outOfOrder += rr.checks[k].outOfOrder
		}
	}
	L := r.Layer
	L["cache.open_s"] = median(openS)
	L["cache.lookups"] = float64(lookups.N())
	L["cache.hit_ratio"] = float64(hits) / float64(max(1, lookups.N()))
	L["cache.lookup_us_p50"], _ = lookups.Pct(0.5)
	L["cache.lookup_us_p99"], _ = lookups.Pct(0.99)
	L["cache.verify_failures"] = float64(verifyFail)
	L["store.appends"] = float64(appends.N())
	L["store.bytes"] = float64(bytes)
	L["store.append_us_p50"], _ = appends.Pct(0.5)
	L["store.append_us_p99"], _ = appends.Pct(0.99)
	L["store.sync_ms"] = median(syncMS)
	L["query.queries"] = float64(nq)
	L["query.compile_us"] = compile.Mean()
	L["query.bytes_read"] = float64(qs.BytesRead)
	L["query.read_ratio"] = float64(qs.BytesRead) / float64(max(1, qs.BytesTotal))
	L["query.useful_ratio"] = float64(qs.Emitted) / float64(max(1, qs.LinesDecoded))
	L["query.runs_read"] = float64(qs.RunsMatched)
	L["query.out_of_order"] = float64(outOfOrder)
	r.Samples["cache.lookup_us"] = lookups.N()
	r.Samples["store.append_us"] = appends.N()
	L["bench.trace_overhead"] = untracedPPS/median(roundPPS) - 1
	fmt.Fprintf(r.Out, "# replay-io traced: %d rounds, cache open %.3fs, sync %.2fms, %d queries, %d records out of order\n",
		len(openS), median(openS), median(syncMS), nq, outOfOrder)
	return nil
}
