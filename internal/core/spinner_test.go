package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

func mustPartitioner(t *testing.T, opts Options) *Partitioner {
	t.Helper()
	p, err := NewPartitioner(opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPartitionerValidation(t *testing.T) {
	if _, err := NewPartitioner(Options{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := NewPartitioner(Options{K: MaxK + 1}); err == nil {
		t.Fatal("K=MaxK+1 accepted")
	}
	if _, err := NewPartitioner(Options{K: MaxK}); err != nil {
		t.Fatalf("K=MaxK refused: %v", err)
	}
	if _, err := NewPartitioner(Options{K: 4, C: 0.9}); err == nil {
		t.Fatal("C<=1 accepted")
	}
	if _, err := NewPartitioner(Options{K: 4, Epsilon: -1}); err == nil {
		t.Fatal("negative epsilon accepted")
	}
	if _, err := NewPartitioner(Options{K: 4, W: -2}); err == nil {
		t.Fatal("negative W accepted")
	}
	if _, err := NewPartitioner(Options{K: 4, MaxIterations: -1}); err == nil {
		t.Fatal("negative MaxIterations accepted")
	}
	p, err := NewPartitioner(DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	o := p.Options()
	if o.C != 1.05 || o.Epsilon != 0.001 || o.W != 5 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

func TestPartitionRecoversPlantedCommunities(t *testing.T) {
	g, _ := gen.PlantedPartition(2000, 4, 14, 2, 7)
	w := graph.Convert(g)
	opts := DefaultOptions(4)
	opts.Seed = 1
	opts.NumWorkers = 4
	res, err := mustPartitioner(t, opts).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateLabels(res.Labels, 4); err != nil {
		t.Fatal(err)
	}
	phi := metrics.Phi(w, res.Labels)
	rho := metrics.Rho(w, res.Labels, 4)
	if phi < 0.70 {
		t.Fatalf("phi=%.3f, want >= 0.70 on planted communities", phi)
	}
	if rho > 1.20 {
		t.Fatalf("rho=%.3f, want near c=1.05", rho)
	}
}

func TestPartitionDirectedConversionPath(t *testing.T) {
	g := gen.BarabasiAlbert(3000, 6, 3)
	opts := DefaultOptions(8)
	opts.Seed = 2
	opts.NumWorkers = 4
	res, err := mustPartitioner(t, opts).Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	w := graph.Convert(g)
	phi := metrics.Phi(w, res.Labels)
	rho := metrics.Rho(w, res.Labels, 8)
	// Hash partitioning on k=8 gives phi ~ 1/8; Spinner must do far better.
	if phi < 0.3 {
		t.Fatalf("phi=%.3f, want >= 0.3", phi)
	}
	if rho > 1.25 {
		t.Fatalf("rho=%.3f too unbalanced", rho)
	}
}

func TestPartitionBeatsRandomLocality(t *testing.T) {
	g := gen.WattsStrogatz(4000, 10, 0.2, 5)
	w := graph.Convert(g)
	opts := DefaultOptions(16)
	opts.Seed = 3
	res, err := mustPartitioner(t, opts).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	phi := metrics.Phi(w, res.Labels)
	if phi < 3.0/16.0 {
		t.Fatalf("phi=%.3f, not meaningfully better than random (1/16)", phi)
	}
}

func TestRhoBoundedByC(t *testing.T) {
	// Fig. 5(a): with high probability ρ ≤ c; allow small exceedance per
	// Prop. 3's probabilistic bound.
	g := gen.WattsStrogatz(3000, 8, 0.3, 11)
	w := graph.Convert(g)
	for _, c := range []float64{1.05, 1.10, 1.20} {
		opts := DefaultOptions(8)
		opts.C = c
		opts.Seed = 13
		res, err := mustPartitioner(t, opts).PartitionWeighted(w)
		if err != nil {
			t.Fatal(err)
		}
		rho := metrics.Rho(w, res.Labels, 8)
		if rho > c*1.05 {
			t.Fatalf("c=%.2f: rho=%.3f exceeds bound materially", c, rho)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := gen.WattsStrogatz(1000, 6, 0.3, 17)
	w := graph.Convert(g)
	opts := DefaultOptions(8)
	opts.Seed = 42
	opts.NumWorkers = 4
	run := func() []int32 {
		res, err := mustPartitioner(t, opts).PartitionWeighted(w)
		if err != nil {
			t.Fatal(err)
		}
		return res.Labels
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at vertex %d", i)
		}
	}
}

func TestDifferentSeedsDifferentPartitionings(t *testing.T) {
	g := gen.WattsStrogatz(1000, 6, 0.3, 17)
	w := graph.Convert(g)
	optsA := DefaultOptions(8)
	optsA.Seed = 1
	optsB := DefaultOptions(8)
	optsB.Seed = 2
	ra, err := mustPartitioner(t, optsA).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := mustPartitioner(t, optsB).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Difference(ra.Labels, rb.Labels) == 0 {
		t.Fatal("different seeds produced identical partitionings")
	}
}

func TestK1Trivial(t *testing.T) {
	g := gen.ErdosRenyi(200, 600, true, 19)
	w := graph.Convert(g)
	opts := DefaultOptions(1)
	res, err := mustPartitioner(t, opts).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Labels {
		if l != 0 {
			t.Fatal("k=1 produced nonzero label")
		}
	}
	if metrics.Phi(w, res.Labels) != 1 {
		t.Fatal("k=1 phi != 1")
	}
}

func TestEdgelessGraphHalts(t *testing.T) {
	w := graph.NewWeighted(10)
	opts := DefaultOptions(4)
	res, err := mustPartitioner(t, opts).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("edgeless graph did not converge immediately")
	}
	if err := metrics.ValidateLabels(res.Labels, 4); err != nil {
		t.Fatal(err)
	}
}

func TestConvergenceHaltsBeforeMaxIterations(t *testing.T) {
	g := gen.WattsStrogatz(2000, 8, 0.3, 23)
	w := graph.Convert(g)
	opts := DefaultOptions(4)
	opts.Seed = 5
	res, err := mustPartitioner(t, opts).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge within %d iterations", opts.MaxIterations)
	}
	if res.Iterations >= opts.MaxIterations {
		t.Fatalf("iterations=%d not fewer than max", res.Iterations)
	}
}

func TestHistoryShape(t *testing.T) {
	// Fig. 4: score improves overall; balance converges near 1.
	g := gen.BarabasiAlbert(4000, 8, 29)
	w := graph.Convert(g)
	opts := DefaultOptions(16)
	opts.Seed = 7
	res, err := mustPartitioner(t, opts).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	h := res.History
	if len(h) < 3 {
		t.Fatalf("history too short: %d", len(h))
	}
	if h[len(h)-1].Score <= h[0].Score {
		t.Fatalf("score did not improve: first=%.1f last=%.1f", h[0].Score, h[len(h)-1].Score)
	}
	if h[len(h)-1].Phi <= h[0].Phi {
		t.Fatalf("phi did not improve: first=%.3f last=%.3f", h[0].Phi, h[len(h)-1].Phi)
	}
	for i, it := range h {
		if it.Iteration != i+1 {
			t.Fatalf("iteration numbering broken at %d", i)
		}
		if it.Rho < 1-1e-9 {
			t.Fatalf("rho=%.3f < 1 at iteration %d", it.Rho, i+1)
		}
	}
	if res.FinalPhi() != h[len(h)-1].Phi || res.FinalRho() != h[len(h)-1].Rho {
		t.Fatal("Final accessors disagree with history")
	}
	if res.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestMaxIterationsRespected(t *testing.T) {
	g := gen.WattsStrogatz(500, 6, 0.3, 31)
	w := graph.Convert(g)
	opts := DefaultOptions(8)
	opts.MaxIterations = 3
	opts.W = 100 // prevent early convergence
	res, err := mustPartitioner(t, opts).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations=%d, want 3", res.Iterations)
	}
	if res.Supersteps != 7 || maxSupersteps(opts.MaxIterations) != 7 {
		t.Fatalf("supersteps=%d, budget %d: want Initialization plus two per iteration, 7",
			res.Supersteps, maxSupersteps(opts.MaxIterations))
	}
	if res.Converged {
		t.Fatal("claimed convergence at MaxIterations")
	}
}

func TestMessagesCounted(t *testing.T) {
	g := gen.WattsStrogatz(500, 6, 0.3, 37)
	w := graph.Convert(g)
	opts := DefaultOptions(4)
	res, err := mustPartitioner(t, opts).PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 {
		t.Fatal("no messages counted")
	}
	if res.Runtime <= 0 {
		t.Fatal("no runtime recorded")
	}
}

func TestUndirectedGraphViaConversion(t *testing.T) {
	// An undirected Graph run through Partition must behave like its
	// weighted conversion (all weights 2).
	g := gen.ErdosRenyi(600, 2400, false, 41)
	opts := DefaultOptions(4)
	opts.Seed = 9
	res, err := mustPartitioner(t, opts).Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateLabels(res.Labels, 4); err != nil {
		t.Fatal(err)
	}
	w := graph.Convert(g)
	if rho := metrics.Rho(w, res.Labels, 4); rho > 1.25 {
		t.Fatalf("rho=%.3f", rho)
	}
}
