package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

func TestKGreaterThanVertices(t *testing.T) {
	w := graph.NewWeighted(5)
	w.AddEdge(0, 1, 1)
	w.AddEdge(1, 2, 1)
	opts := DefaultOptions(16)
	opts.Seed = 201
	res, err := mustPartitioner(t, opts).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateLabels(res.Labels, 16); err != nil {
		t.Fatal(err)
	}
}

func TestSingleVertex(t *testing.T) {
	w := graph.NewWeighted(1)
	opts := DefaultOptions(2)
	res, err := mustPartitioner(t, opts).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 1 {
		t.Fatal("missing label")
	}
}

func TestMoreWorkersThanVerticesCore(t *testing.T) {
	w := graph.NewWeighted(6)
	for i := 0; i < 5; i++ {
		w.AddEdge(graph.VertexID(i), graph.VertexID(i+1), 1)
	}
	opts := DefaultOptions(2)
	opts.NumWorkers = 32
	opts.Seed = 203
	res, err := mustPartitioner(t, opts).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateLabels(res.Labels, 2); err != nil {
		t.Fatal(err)
	}
}

func TestIsolatedVerticesGetLabels(t *testing.T) {
	// Isolated vertices have zero degree and zero load; they must still be
	// labeled and must not crash the score function.
	w := graph.NewWeighted(100)
	for i := 0; i < 50; i += 2 {
		w.AddEdge(graph.VertexID(i), graph.VertexID(i+1), 1)
	}
	opts := DefaultOptions(4)
	opts.Seed = 207
	res, err := mustPartitioner(t, opts).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateLabels(res.Labels, 4); err != nil {
		t.Fatal(err)
	}
}

func TestFirstIterationTime(t *testing.T) {
	g := gen.WattsStrogatz(1000, 6, 0.3, 209)
	w := graph.Convert(g)
	opts := DefaultOptions(4)
	opts.Seed = 211
	res, err := mustPartitioner(t, opts).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	d := res.FirstIterationTime()
	if d <= 0 {
		t.Fatalf("first iteration time %v", d)
	}
	if d > res.Runtime {
		t.Fatalf("first iteration %v exceeds total runtime %v", d, res.Runtime)
	}
	if len(res.SuperstepDurations) != res.Supersteps {
		t.Fatalf("%d durations for %d supersteps", len(res.SuperstepDurations), res.Supersteps)
	}
}

func TestFirstIterationTimeNoIterations(t *testing.T) {
	r := &Result{Supersteps: 1, Iterations: 0, SuperstepDurations: nil}
	if r.FirstIterationTime() != 0 {
		t.Fatal("empty run reported nonzero iteration time")
	}
}

// TestConvertPathMatchesWeightedPath: the loads the engine tracks while
// Partition runs are the loads of graph.Convert(g), so the ρ its History
// records equals ρ recomputed from its labels on the converted graph.
func TestConvertPathMatchesWeightedPath(t *testing.T) {
	g := gen.BarabasiAlbert(1500, 6, 213)
	opts := DefaultOptions(8)
	opts.Seed = 215
	res, err := mustPartitioner(t, opts).Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	w := graph.Convert(g)
	want := metrics.Rho(w, res.Labels, 8)
	got := res.FinalRho()
	if diff := want - got; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("engine-tracked rho %.6f != recomputed %.6f: the engine's loads are not Convert's", got, want)
	}
}

func TestHistoryMigrationsBounded(t *testing.T) {
	g := gen.WattsStrogatz(1000, 6, 0.3, 217)
	w := graph.Convert(g)
	opts := DefaultOptions(4)
	opts.Seed = 219
	res, err := mustPartitioner(t, opts).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.History {
		if it.Migrations < 0 || it.Migrations > int64(w.NumVertices()) {
			t.Fatalf("iteration %d: migrations=%d out of range", it.Iteration, it.Migrations)
		}
		if it.CandidateLoad < 0 {
			t.Fatalf("iteration %d: negative candidate load", it.Iteration)
		}
	}
}
