package alloc

import (
	"fmt"
	"math/rand"
	"testing"

	"ptgsched/internal/dag"
	"ptgsched/internal/daggen"
	"ptgsched/internal/platform"
	"ptgsched/internal/strategy"
)

// growAll runs one shared growth for betas and returns the allocations
// in input order.
func growAll(gr *Grower, g *dag.Graph, rf platform.Reference, betas []float64, proc Procedure) []*Allocation {
	dst := make([]*Allocation, len(betas))
	for k := range dst {
		dst[k] = &Allocation{}
	}
	gr.Grow(dst, g, rf, betas, proc)
	return dst
}

// sameProcs reports the first task whose allocation differs, or -1.
func sameProcs(got, want []int) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

// checkAgainstOracle grows g under betas from one shared log and holds
// every allocation to a separate oracle run; it returns the number of
// allocations compared.
func checkAgainstOracle(t *testing.T, gr *Grower, g *dag.Graph, rf platform.Reference, betas []float64, proc Procedure) int {
	t.Helper()
	got := growAll(gr, g, rf, betas, proc)
	for k, beta := range betas {
		want := oracleCompute(g, rf, beta, proc)
		if got[k].Beta != beta || got[k].Graph != g || got[k].Ref != rf {
			t.Fatalf("%s β=%g: allocation carries graph %p ref %v β %g", proc, beta, got[k].Graph, got[k].Ref, got[k].Beta)
		}
		if i := sameProcs(got[k].Procs, want.Procs); i >= 0 {
			t.Fatalf("%s %s on %v, β=%g of %v: task %d has %d procs, oracle %d",
				proc, g.Name, rf, beta, betas, i, got[k].Procs[i], want.Procs[i])
		}
	}
	return len(betas)
}

// TestGrowMatchesOracle is the differential test of the shared growth
// log: random, FFT and Strassen batches on the four Grid'5000 reference
// clusters, each graph grown under M_own's β = 1, every paper strategy's
// β and random β in (0, 1], under both procedures. Every allocation must
// equal a separate run of the pre-log loop.
func TestGrowMatchesOracle(t *testing.T) {
	families := []daggen.Family{daggen.FamilyRandom, daggen.FamilyFFT, daggen.FamilyStrassen}
	batches := 2
	if testing.Short() {
		batches = 1
	}
	compared := 0
	var gr Grower // one Grower across every case, as a worker reuses it
	for _, fam := range families {
		strats := strategy.PaperSet(fam)
		for b := 0; b < batches; b++ {
			r := rand.New(rand.NewSource(int64(100*b) + int64(fam)))
			graphs := make([]*dag.Graph, 4)
			for i := range graphs {
				graphs[i] = daggen.Generate(fam, r)
			}
			for _, pf := range platform.Grid5000Sites() {
				rf := pf.ReferenceCluster()
				cols := make([][]float64, len(strats))
				for s, st := range strats {
					cols[s] = st.Betas(graphs, rf)
				}
				for i, g := range graphs {
					betas := []float64{1}
					for s := range strats {
						betas = append(betas, cols[s][i])
					}
					for j := 0; j < 3; j++ {
						betas = append(betas, 1-r.Float64()) // (0, 1]
					}
					for _, proc := range []Procedure{SCRAP, SCRAPMAX} {
						t.Run(fmt.Sprintf("%s/%d/%s/%d/%s", fam, b, pf.Name, i, proc), func(t *testing.T) {
							compared += checkAgainstOracle(t, &gr, g, rf, betas, proc)
						})
					}
				}
			}
		}
	}
	t.Logf("%d allocations matched the oracle", compared)
}

// TestComputeMatchesOracle pins the one-β case: Compute is Grow with a
// single constraint, and must equal the pre-log loop on its own.
func TestComputeMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := daggen.Generate(daggen.Family(seed%3), r)
		rf := ref(50+int(seed)*17, 2.5+float64(seed)/4)
		beta := 1 - r.Float64()
		proc := Procedure(seed % 2)
		got, want := Compute(g, rf, beta, proc), oracleCompute(g, rf, beta, proc)
		if i := sameProcs(got.Procs, want.Procs); i >= 0 {
			t.Fatalf("seed %d: task %d has %d procs, oracle %d", seed, i, got.Procs[i], want.Procs[i])
		}
	}
}

// TestGrowReusesBuffersAndOrder checks the reuse contract: a Grower and
// its destination allocations recycled across graphs of different sizes,
// with duplicate and unsorted constraints, still match the oracle.
func TestGrowReusesBuffersAndOrder(t *testing.T) {
	var gr Grower
	dst := []*Allocation{{}, {}, {}, {}, {}}
	betas := []float64{0.3, 1, 0.3, 0.05, 1}
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := daggen.Generate(daggen.Family(seed%3), r)
		rf := ref(120, 3)
		gr.Grow(dst, g, rf, betas, SCRAPMAX)
		for k, beta := range betas {
			want := oracleCompute(g, rf, beta, SCRAPMAX)
			if i := sameProcs(dst[k].Procs, want.Procs); i >= 0 {
				t.Fatalf("seed %d β=%g: task %d has %d procs, oracle %d", seed, beta, i, dst[k].Procs[i], want.Procs[i])
			}
		}
	}
}

func TestGrowRejectsMismatchedDestination(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Grow accepted 1 destination for 2 constraints")
		}
	}()
	g := daggen.Strassen(rand.New(rand.NewSource(1)))
	var gr Grower
	gr.Grow([]*Allocation{{}}, g, ref(10, 1), []float64{1, 0.5}, SCRAPMAX)
}

// forwardDAG builds a random DAG whose edges only run from lower to
// higher task index, so it is acyclic by construction. Work and α come
// from r; density in [0, 1] is the probability of each forward pair.
func forwardDAG(r *rand.Rand, n int, density float64) *dag.Graph {
	g := dag.New("fuzz")
	tasks := make([]*dag.Task, n)
	for i := range tasks {
		tasks[i] = g.AddTask(fmt.Sprintf("t%d", i), 1+r.Float64()*1e6, 0.1+r.Float64()*500, r.Float64())
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < density {
				g.MustAddEdge(tasks[i], tasks[j], r.Float64()*1e8)
			}
		}
	}
	return g
}

// FuzzGrowMatchesOracle drives the shared growth log with forward-edge
// random DAGs, random work and α, random reference clusters and random
// β sets (each byte of raw is one β in (0, 1]), under both procedures.
// Every allocation must equal a separate oracle run.
func FuzzGrowMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(80), uint8(100), []byte{255, 128, 32, 7})
	f.Add(int64(2), uint8(1), uint8(0), uint8(2), []byte{255})
	f.Add(int64(3), uint8(30), uint8(200), uint8(250), []byte{0, 0, 255, 255, 90})
	f.Add(int64(4), uint8(20), uint8(10), uint8(60), []byte{3, 200, 150, 100, 50, 25, 12, 6})
	f.Fuzz(func(t *testing.T, seed int64, tasks, density, procs uint8, raw []byte) {
		if len(raw) == 0 || len(raw) > 12 {
			return
		}
		r := rand.New(rand.NewSource(seed))
		g := forwardDAG(r, 1+int(tasks)%32, float64(density)/255)
		rf := ref(2+int(procs)%96, 0.5+r.Float64()*5)
		betas := make([]float64, len(raw))
		for k, b := range raw {
			betas[k] = (float64(b) + 1) / 256
		}
		var gr Grower
		for _, proc := range []Procedure{SCRAP, SCRAPMAX} {
			checkAgainstOracle(t, &gr, g, rf, betas, proc)
		}
	})
}
