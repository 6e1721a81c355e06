package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"ptgsched/internal/core"
	"ptgsched/internal/platform"
	"ptgsched/internal/query"
	"ptgsched/internal/scenario"
	"ptgsched/internal/simexec"
)

func mustExpand(t *testing.T, s scenario.Spec) *scenario.Expansion {
	t.Helper()
	e, err := expandSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func tinyStatic() scenario.Spec {
	return scenario.Spec{Seed: 3, Reps: 1, NPTGs: []int{2, 3}, Platforms: []string{"lille", "rennes"},
		Families: []scenario.FamilySpec{{Family: "random"}, {Family: "strassen"}}}
}

func tinyDynamic() scenario.Spec {
	s := dynamicFailures.spec(5)
	s.Reps, s.Platforms = 1, []string{"rennes"}
	return s
}

func TestOrderCheckerRejectsShuffledStream(t *testing.T) {
	idx := make([]int, 50)
	for i := range idx {
		idx[i] = 100 + i
	}
	if n := OrderErrors(idx); n != 0 {
		t.Fatalf("sorted stream: %d order errors", n)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	if OrderErrors(idx) == 0 {
		t.Fatal("shuffled stream passed the order check")
	}
	if OrderErrors([]int{1, 2, 2, 3}) != 1 {
		t.Fatal("a repeated index passed the order check")
	}
}

func TestQueryCheckSeparatesOrderFromContent(t *testing.T) {
	e := mustExpand(t, scenario.Spec{Seed: 4, Reps: 3, NPTGs: []int{2}, Platforms: []string{"lille", "rennes"},
		Families: []scenario.FamilySpec{{Family: "strassen"}, {Family: "fft"}}})
	f := &replayFixture{e: e, tmpl: make([][]scenario.PointResult, len(e.Cells))}
	for ci := range e.Cells {
		lo, _ := e.CellRange(ci)
		f.tmpl[ci] = e.Run(scenario.IndexSet{Limit: lo + templatesPerCell, Offset: lo}, 1)
	}
	plan, err := query.Compile(e, query.Query{From: 1, To: e.NumPoints() - 1})
	if err != nil {
		t.Fatal(err)
	}
	var inOrder []scenario.PointResult
	for i := plan.From; i < plan.To; i++ {
		inOrder = append(inOrder, f.expected(i))
	}
	if qc := f.check(plan, inOrder); qc.failed() {
		t.Fatalf("exact answer failed: %+v", qc)
	}
	shuffled := append([]scenario.PointResult(nil), inOrder...)
	shuffled[0], shuffled[3] = shuffled[3], shuffled[0]
	if qc := f.check(plan, shuffled); qc.outOfOrder == 0 || qc.wrongSet || qc.wrongValues {
		t.Errorf("shuffled answer: %+v, want an order failure only", qc)
	}
	if qc := f.check(plan, inOrder[1:]); !qc.wrongSet {
		t.Errorf("answer missing a record: %+v", qc)
	}
	altered := append([]scenario.PointResult(nil), inOrder...)
	altered[2].Makespan = append([]float64{altered[2].Makespan[0] * 2}, altered[2].Makespan[1:]...)
	if qc := f.check(plan, altered); !qc.wrongValues {
		t.Errorf("answer with an altered value: %+v", qc)
	}
}

func TestTinySpecDigestIndependentOfWorkers(t *testing.T) {
	for _, spec := range []scenario.Spec{tinyStatic(), tinyDynamic()} {
		e := mustExpand(t, spec)
		one, _, err := sweep(e, 1)
		if err != nil {
			t.Fatal(err)
		}
		many, _, err := sweep(e, runtime.NumCPU())
		if err != nil {
			t.Fatal(err)
		}
		d1, _ := resultDigest(one)
		dn, _ := resultDigest(many)
		if d1 != dn {
			t.Errorf("%d points: digest %s at 1 worker, %s at %d", e.NumPoints(), d1, dn, runtime.NumCPU())
		}
	}
}

func TestTracedRebuildMatchesSweep(t *testing.T) {
	for _, c := range []struct {
		spec scenario.Spec
		camp campaign
	}{{tinyStatic(), staticPaper}, {tinyDynamic(), dynamicFailures}} {
		e := mustExpand(t, c.spec)
		res, _, err := sweep(e, 2)
		if err != nil {
			t.Fatal(err)
		}
		w := &rebuildWorker{trace: &Trace{}, core: core.NewScratch(), exec: simexec.NewScratch(),
			scheds: map[*platform.Platform]*core.Scheduler{}}
		for i := range e.NumPoints() {
			root := w.trace.Begin("point", -1)
			got := c.camp.rebuild(w.trace, root, e, e.PointAt(i), w)
			w.trace.End(root)
			if !sameRecord(got, res[i]) {
				t.Errorf("point %d: rebuild differs from the sweep", i)
			}
		}
		if len(w.trace.Spans) <= e.NumPoints() {
			t.Errorf("rebuild recorded no layer spans")
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the program prints
// and the ones BENCHMARK.json declares in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
}
