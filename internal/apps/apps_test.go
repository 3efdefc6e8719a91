package apps

import (
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func chain(n int) *graph.Graph {
	g := graph.New(n, true)
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	return g
}

func TestSSSPChain(t *testing.T) {
	g := chain(10)
	dist, res, err := SSSP(g, 0, RunConfig{NumWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if dist[i] != float64(i) {
			t.Fatalf("dist[%d]=%v, want %d", i, dist[i], i)
		}
	}
	if res.Supersteps < 9 {
		t.Fatalf("supersteps=%d, want >= 9 for a 10-chain", res.Supersteps)
	}
}

func TestSSSPUnreachable(t *testing.T) {
	g := graph.New(3, true)
	g.AddEdge(0, 1)
	dist, _, err := SSSP(g, 0, RunConfig{NumWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(dist[2], 1) {
		t.Fatalf("dist[2]=%v, want +Inf", dist[2])
	}
}

func TestSSSPBadSource(t *testing.T) {
	if _, _, err := SSSP(chain(3), 99, RunConfig{}); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestSSSPMatchesBFSOnRandomGraph(t *testing.T) {
	g := gen.ErdosRenyi(500, 2500, true, 7)
	dist, _, err := SSSP(g, 0, RunConfig{NumWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Reference BFS over the symmetrized graph (SSSP's traversal domain).
	sym := make([][]graph.VertexID, 500)
	g.Edges(func(u, v graph.VertexID) {
		sym[u] = append(sym[u], v)
		sym[v] = append(sym[v], u)
	})
	ref := make([]float64, 500)
	for i := range ref {
		ref[i] = math.Inf(1)
	}
	ref[0] = 0
	queue := []graph.VertexID{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range sym[u] {
			if math.IsInf(ref[v], 1) {
				ref[v] = ref[u] + 1
				queue = append(queue, v)
			}
		}
	}
	for i := range ref {
		if dist[i] != ref[i] {
			t.Fatalf("dist[%d]=%v, reference %v", i, dist[i], ref[i])
		}
	}
}

func TestWCCComponents(t *testing.T) {
	g := graph.New(6, true)
	g.AddEdge(0, 1)
	g.AddEdge(2, 1) // weakly connects {0,1,2}
	g.AddEdge(3, 4)
	comp, _, err := WCC(g, RunConfig{NumWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if comp[0] != 0 || comp[1] != 0 || comp[2] != 0 {
		t.Fatalf("component of {0,1,2} = %v", comp[:3])
	}
	if comp[3] != 3 || comp[4] != 3 {
		t.Fatalf("component of {3,4} = %v", comp[3:5])
	}
	if comp[5] != 5 {
		t.Fatalf("isolated vertex component = %d", comp[5])
	}
}

func TestWCCMatchesReference(t *testing.T) {
	g := gen.ErdosRenyi(400, 500, true, 9) // sparse → several components
	comp, _, err := WCC(g, RunConfig{NumWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	refLabels, _ := graph.ConnectedComponents(g)
	// Same partition structure: comp[u]==comp[v] iff refLabels[u]==refLabels[v].
	repr := map[int32]int32{}
	for v := range comp {
		r, ok := repr[refLabels[v]]
		if !ok {
			repr[refLabels[v]] = comp[v]
		} else if r != comp[v] {
			t.Fatalf("vertex %d: WCC disagrees with reference", v)
		}
	}
}

// TestHaltingPinned pins when SSSP (min-combiner) and WCC stop and how many
// vertices each superstep computes, at 1 and 3 workers: the engine decides
// whether another superstep runs from the vertices that stayed active and
// the messages it delivered, and that must halt where the vote-to-halt
// count at delivery did. The last superstep computes the vertices woken by
// the previous one's messages, which send nothing.
func TestHaltingPinned(t *testing.T) {
	g := gen.ErdosRenyi(400, 500, true, 9) // sparse → several components
	ssspActive := []int64{400, 5, 20, 44, 103, 178, 176, 89, 20, 5, 2}
	wccActive := []int64{400, 340, 299, 288, 278, 256, 208, 100, 24, 7, 2}
	for _, workers := range []int{1, 3} {
		cfg := RunConfig{NumWorkers: workers}
		_, sssp, err := SSSP(g, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, wcc, err := WCC(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			res  *Result
			want []int64
		}{{"SSSP", sssp, ssspActive}, {"WCC", wcc, wccActive}} {
			var active []int64
			for _, st := range c.res.Stats {
				active = append(active, st.Active)
			}
			if c.res.Supersteps != len(c.want) || !slices.Equal(active, c.want) {
				t.Errorf("%s, %d workers: %d supersteps computing %v vertices, want %d computing %v",
					c.name, workers, c.res.Supersteps, active, len(c.want), c.want)
			}
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := gen.BarabasiAlbert(1000, 5, 11)
	ranks, res, err := PageRank(g, 20, RunConfig{NumWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 21 {
		t.Fatalf("supersteps=%d, want 21 (20 iterations + final)", res.Supersteps)
	}
	sum := 0.0
	for _, r := range ranks {
		sum += r
	}
	// Dangling mass leaks in this formulation (as in the standard Pregel
	// example); sum stays within (0.5, 1.01].
	if sum <= 0.5 || sum > 1.01 {
		t.Fatalf("rank sum=%v", sum)
	}
}

func TestPageRankHubsRankHigher(t *testing.T) {
	// Star pointing at vertex 0: vertex 0 must out-rank the leaves.
	g := graph.New(10, true)
	for i := 1; i < 10; i++ {
		g.AddEdge(graph.VertexID(i), 0)
	}
	ranks, _, err := PageRank(g, 15, RunConfig{NumWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if ranks[0] <= ranks[i] {
			t.Fatalf("hub rank %v <= leaf rank %v", ranks[0], ranks[i])
		}
	}
}

func TestPageRankValidation(t *testing.T) {
	if _, _, err := PageRank(chain(3), 0, RunConfig{}); err == nil {
		t.Fatal("iterations=0 accepted")
	}
}

func TestPlacementReducesRemoteMessages(t *testing.T) {
	// The §V-F mechanism: placement derived from a locality-aware
	// partitioning must produce fewer remote messages than hash placement.
	g, truth := gen.PlantedPartition(2000, 4, 12, 2, 13)
	const workers = 4
	_, hashRes, err := PageRank(g, 10, RunConfig{NumWorkers: workers, Placement: HashPlacement(workers)})
	if err != nil {
		t.Fatal(err)
	}
	_, partRes, err := PageRank(g, 10, RunConfig{NumWorkers: workers, Placement: PlacementFromLabels(truth, workers)})
	if err != nil {
		t.Fatal(err)
	}
	if partRes.RemoteMessages() >= hashRes.RemoteMessages() {
		t.Fatalf("partitioned remote=%d not fewer than hash remote=%d",
			partRes.RemoteMessages(), hashRes.RemoteMessages())
	}
	// PageRank installs a sum combiner, and the engine combines on the send
	// side: messages that share a (worker, destination) pair collapse before
	// they are counted. Locality-aware placement therefore reduces — never
	// increases — the total physical traffic relative to hash placement.
	total := func(r *Result) (t int64) {
		for _, st := range r.Stats {
			t += st.TotalSent()
		}
		return t
	}
	if total(partRes) > total(hashRes) {
		t.Fatalf("partitioned total=%d exceeds hash total=%d (send-side combining should shrink totals under better placement)",
			total(partRes), total(hashRes))
	}
}

func TestAppsDeterministic(t *testing.T) {
	g := gen.WattsStrogatz(500, 6, 0.3, 15)
	r1, _, err := PageRank(g, 10, RunConfig{NumWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := PageRank(g, 10, RunConfig{NumWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("PageRank nondeterministic at %d", i)
		}
	}
}
