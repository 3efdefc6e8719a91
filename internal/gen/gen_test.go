package gen

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

func TestWattsStrogatzShape(t *testing.T) {
	g := WattsStrogatz(1000, 10, 0.3, 1)
	if g.NumVertices() != 1000 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	if g.NumEdges() != 10000 {
		t.Fatalf("m=%d, want 10000", g.NumEdges())
	}
	if !g.Directed() {
		t.Fatal("WS graph should be directed (Pregel data model)")
	}
	// Every vertex has out-degree exactly k.
	for u := 0; u < 1000; u++ {
		if g.OutDegree(graph.VertexID(u)) != 10 {
			t.Fatalf("deg(%d)=%d, want 10", u, g.OutDegree(graph.VertexID(u)))
		}
	}
}

func TestWattsStrogatzBetaZeroIsLattice(t *testing.T) {
	g := WattsStrogatz(100, 4, 0, 1)
	for u := 0; u < 100; u++ {
		for j := 1; j <= 4; j++ {
			if !g.HasEdge(graph.VertexID(u), graph.VertexID((u+j)%100)) {
				t.Fatalf("lattice edge (%d,%d) missing", u, (u+j)%100)
			}
		}
	}
}

func TestWattsStrogatzDeterministic(t *testing.T) {
	a := WattsStrogatz(500, 6, 0.3, 42)
	b := WattsStrogatz(500, 6, 0.3, 42)
	same := true
	a.Edges(func(u, v graph.VertexID) {
		if !b.HasEdge(u, v) {
			same = false
		}
	})
	if !same {
		t.Fatal("same seed produced different graphs")
	}
}

func TestWattsStrogatzRewiringHappens(t *testing.T) {
	g := WattsStrogatz(1000, 4, 0.5, 7)
	rewired := 0
	g.Edges(func(u, v graph.VertexID) {
		d := (int(v) - int(u) + 1000) % 1000
		if d > 4 {
			rewired++
		}
	})
	if rewired < 1000 { // expect ~2000 of 4000 rewired
		t.Fatalf("only %d rewired edges, expected ~2000", rewired)
	}
}

func TestWattsStrogatzInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid WS params did not panic")
		}
	}()
	WattsStrogatz(10, 10, 0.1, 1)
}

func TestBarabasiAlbertHubs(t *testing.T) {
	g := BarabasiAlbert(5000, 5, 3)
	if g.NumVertices() != 5000 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	// In-degree must be heavy tailed: max in-degree far above mean.
	indeg := make([]int, 5000)
	g.Edges(func(u, v graph.VertexID) { indeg[v]++ })
	maxIn, sum := 0, 0
	for _, d := range indeg {
		if d > maxIn {
			maxIn = d
		}
		sum += d
	}
	mean := float64(sum) / 5000
	if float64(maxIn) < 20*mean {
		t.Fatalf("max in-degree %d not hub-like (mean %.1f)", maxIn, mean)
	}
}

func TestBarabasiAlbertNewVertexDegree(t *testing.T) {
	g := BarabasiAlbert(200, 4, 9)
	for u := 5; u < 200; u++ {
		if g.OutDegree(graph.VertexID(u)) != 4 {
			t.Fatalf("vertex %d out-degree %d, want 4", u, g.OutDegree(graph.VertexID(u)))
		}
	}
}

// One seed is one graph: the edge list (in insertion order) must repeat
// call for call, and a different seed must give a different one.
func TestBarabasiAlbertDeterministic(t *testing.T) {
	edges := func(seed uint64) [][2]graph.VertexID {
		var out [][2]graph.VertexID
		BarabasiAlbert(2000, 6, seed).Edges(func(u, v graph.VertexID) {
			out = append(out, [2]graph.VertexID{u, v})
		})
		return out
	}
	a := edges(17)
	for call := 0; call < 3; call++ {
		if b := edges(17); !slices.Equal(a, b) {
			t.Fatalf("call %d with the same seed produced a different edge list", call+2)
		}
	}
	if slices.Equal(a, edges(18)) {
		t.Fatal("a different seed produced the same edge list")
	}
}

func TestErdosRenyiEdgeCount(t *testing.T) {
	g := ErdosRenyi(500, 3000, true, 11)
	if g.NumEdges() != 3000 {
		t.Fatalf("m=%d, want 3000", g.NumEdges())
	}
	g2 := ErdosRenyi(500, 2000, false, 11)
	if g2.NumEdges() != 2000 {
		t.Fatalf("undirected m=%d, want 2000", g2.NumEdges())
	}
}

func TestErdosRenyiNoSelfLoops(t *testing.T) {
	g := ErdosRenyi(100, 500, true, 13)
	g.Edges(func(u, v graph.VertexID) {
		if u == v {
			t.Fatalf("self loop at %d", u)
		}
	})
}

func TestPowerLawConfigSkew(t *testing.T) {
	g := PowerLawConfig(5000, 100, 1.5, 17)
	maxDeg := 0
	for u := range g.NumVertices() {
		maxDeg = max(maxDeg, g.OutDegree(graph.VertexID(u)))
	}
	mean := float64(g.NumArcs()) / float64(g.NumVertices())
	if maxDeg < 5*int(mean+1) {
		t.Fatalf("degree distribution not skewed: max %d, mean %.2f", maxDeg, mean)
	}
	if g.NumEdges() == 0 {
		t.Fatal("empty graph")
	}
}

func TestRMATShape(t *testing.T) {
	g := RMAT(10, 8000, 19)
	if g.NumVertices() != 1024 {
		t.Fatalf("n=%d, want 1024", g.NumVertices())
	}
	if g.NumEdges() == 0 || g.NumEdges() > 8000 {
		t.Fatalf("m=%d out of range", g.NumEdges())
	}
	// R-MAT with Graph500 params concentrates edges on low IDs.
	low, high := int64(0), int64(0)
	g.Edges(func(u, v graph.VertexID) {
		if u < 512 {
			low++
		} else {
			high++
		}
	})
	if low <= high {
		t.Fatalf("no skew: low=%d high=%d", low, high)
	}
}

func TestPlantedPartitionGroundTruth(t *testing.T) {
	g, truth := PlantedPartition(1200, 4, 16, 2, 23)
	if g.NumVertices() != 1200 || len(truth) != 1200 {
		t.Fatal("wrong sizes")
	}
	// Measure locality of ground truth labels — should be high.
	intra, total := 0, 0
	g.Edges(func(u, v graph.VertexID) {
		if u < v {
			total++
			if truth[u] == truth[v] {
				intra++
			}
		}
	})
	frac := float64(intra) / float64(total)
	if frac < 0.8 {
		t.Fatalf("planted locality %.2f < 0.8", frac)
	}
}

func TestLoadAllDatasets(t *testing.T) {
	for _, d := range append(append([]Dataset{}, AllDatasets...), YahooLike) {
		g := Load(d, 2000, 1)
		if g.NumVertices() != 2000 {
			t.Fatalf("%s: n=%d", d, g.NumVertices())
		}
		if g.NumEdges() == 0 {
			t.Fatalf("%s: no edges", d)
		}
	}
}

func TestLoadDefaultScale(t *testing.T) {
	g := Load(TuentiLike, 0, 1)
	if g.NumVertices() != 20000 {
		t.Fatalf("default scale n=%d, want 20000", g.NumVertices())
	}
}

func TestLoadUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown dataset did not panic")
		}
	}()
	Load(Dataset("nope"), 100, 1)
}

func TestGrowthBatchSize(t *testing.T) {
	w := graph.Convert(WattsStrogatz(2000, 8, 0.2, 29))
	mut := GrowthBatch(w, 0.05, 31)
	want := int(0.05 * float64(w.NumEdges()))
	if len(mut.NewEdges) != want {
		t.Fatalf("batch size %d, want %d", len(mut.NewEdges), want)
	}
	for _, e := range mut.NewEdges {
		if e.U == e.V {
			t.Fatal("growth batch contains self loop")
		}
	}
}

func TestGrowthBatchDeterministic(t *testing.T) {
	w := graph.Convert(WattsStrogatz(1000, 6, 0.2, 29))
	a := GrowthBatch(w, 0.02, 5)
	b := GrowthBatch(w, 0.02, 5)
	if len(a.NewEdges) != len(b.NewEdges) {
		t.Fatal("nondeterministic batch size")
	}
	for i := range a.NewEdges {
		if a.NewEdges[i] != b.NewEdges[i] {
			t.Fatal("nondeterministic batch content")
		}
	}
}

// freshPairs counts the distinct pairs mut adds that w does not hold yet:
// the edges Apply creates, the other additions adding weight to an edge.
func freshPairs(w *graph.Weighted, mut *graph.Mutation) int64 {
	fresh := map[graph.Edge]bool{}
	for _, e := range mut.NewEdges {
		held := false
		for _, a := range w.Neighbors(e.U) {
			held = held || a.To == e.V
		}
		if !held {
			fresh[graph.Edge{From: min(e.U, e.V), To: max(e.U, e.V)}] = true
		}
	}
	return int64(len(fresh))
}

func TestGrowthBatchApplies(t *testing.T) {
	w := graph.Convert(WattsStrogatz(1000, 6, 0.2, 29))
	before, weight := w.NumEdges(), w.TotalWeight()
	mut := GrowthBatch(w, 0.1, 7)
	fresh := freshPairs(w, mut)
	if fresh == int64(len(mut.NewEdges)) {
		t.Fatal("no addition re-adds a pair: the merge is not exercised")
	}
	if _, err := mut.Apply(w); err != nil {
		t.Fatal(err)
	}
	if w.NumEdges() != before+fresh || w.TotalWeight() != weight+2*int64(len(mut.NewEdges)) {
		t.Fatalf("%d additions, %d of new pairs: edges %d → %d, weight %d → %d",
			len(mut.NewEdges), fresh, before, w.NumEdges(), weight, w.TotalWeight())
	}
}

func TestChurnBatch(t *testing.T) {
	w := graph.Convert(WattsStrogatz(2000, 8, 0.2, 41))
	before := w.NumEdges()
	mut := ChurnBatch(w, 0.05, 0.03, 43)
	wantAdds := int(0.05 * float64(before))
	wantRemovals := int(0.03 * float64(before))
	if len(mut.NewEdges) != wantAdds {
		t.Fatalf("adds=%d, want %d", len(mut.NewEdges), wantAdds)
	}
	if len(mut.RemovedEdges) != wantRemovals {
		t.Fatalf("removals=%d, want %d", len(mut.RemovedEdges), wantRemovals)
	}
	fresh := freshPairs(w, mut)
	if _, err := mut.Apply(w); err != nil {
		t.Fatal(err)
	}
	if w.NumEdges() != before+fresh-int64(wantRemovals) {
		t.Fatalf("edges=%d after churn", w.NumEdges())
	}
}

func TestChurnBatchNoRemovals(t *testing.T) {
	w := graph.Convert(WattsStrogatz(500, 6, 0.2, 47))
	mut := ChurnBatch(w, 0.02, 0, 49)
	if len(mut.RemovedEdges) != 0 {
		t.Fatal("unexpected removals")
	}
}

func TestChurnBatchInvalidFrac(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("removeFrac > 1 did not panic")
		}
	}()
	w := graph.Convert(WattsStrogatz(100, 4, 0.2, 51))
	ChurnBatch(w, 0, 1.5, 53)
}
