package baselines

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// partitioner is one baseline under test, named for failure messages.
type partitioner struct {
	name      string
	partition func(w *graph.Weighted, k int) []int32
}

// seeded returns every baseline, the seeded ones with the given seed.
func seeded(seed uint64) []partitioner {
	return []partitioner{
		{"Hash", Hash{}.Partition},
		{"LDG", LDG{Seed: seed}.Partition},
		{"Fennel", Fennel{Seed: seed}.Partition},
		{"Multilevel", Multilevel{Seed: seed}.Partition},
		{"LPACoarsen", LPACoarsen{Seed: seed}.Partition},
	}
}

func testGraph() *graph.Weighted {
	return graph.Convert(gen.WattsStrogatz(2000, 8, 0.2, 99))
}

func TestAllProduceValidLabels(t *testing.T) {
	w := testGraph()
	for _, p := range seeded(1) {
		for _, k := range []int{1, 2, 7, 16} {
			labels := p.partition(w, k)
			if len(labels) != w.NumVertices() {
				t.Fatalf("%s k=%d: %d labels", p.name, k, len(labels))
			}
			if err := metrics.ValidateLabels(labels, k); err != nil {
				t.Fatalf("%s k=%d: %v", p.name, k, err)
			}
		}
	}
}

func TestAllDeterministic(t *testing.T) {
	w := testGraph()
	for _, p := range seeded(1) {
		a := p.partition(w, 8)
		b := p.partition(w, 8)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s nondeterministic at vertex %d", p.name, i)
			}
		}
	}
}

func TestHashUniform(t *testing.T) {
	w := graph.NewWeighted(10000)
	labels := Hash{}.Partition(w, 10)
	counts := make([]int, 10)
	for _, l := range labels {
		counts[l]++
	}
	for l, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("hash bucket %d has %d vertices, want ~1000", l, c)
		}
	}
}

func TestHashLocalityIsRandomLevel(t *testing.T) {
	// Hash partitioning gives φ ≈ 1/k.
	w := testGraph()
	phi := metrics.Phi(w, Hash{}.Partition(w, 8))
	if phi < 0.08 || phi > 0.18 {
		t.Fatalf("hash phi=%.3f, want ~1/8", phi)
	}
}

func TestLDGBetterThanHash(t *testing.T) {
	w := testGraph()
	phiLDG := metrics.Phi(w, LDG{Seed: 3}.Partition(w, 8))
	phiHash := metrics.Phi(w, Hash{}.Partition(w, 8))
	if phiLDG <= phiHash {
		t.Fatalf("LDG phi=%.3f not better than hash %.3f", phiLDG, phiHash)
	}
}

func TestLDGVertexBalance(t *testing.T) {
	w := testGraph()
	labels := LDG{Seed: 3}.Partition(w, 8)
	counts := make([]int, 8)
	for _, l := range labels {
		counts[l]++
	}
	target := w.NumVertices() / 8
	for l, c := range counts {
		if float64(c) > 1.2*float64(target) {
			t.Fatalf("LDG partition %d has %d vertices (target %d)", l, c, target)
		}
	}
}

func TestFennelBetterThanHashAndBounded(t *testing.T) {
	w := testGraph()
	labels := Fennel{Seed: 5}.Partition(w, 8)
	phi := metrics.Phi(w, labels)
	phiHash := metrics.Phi(w, Hash{}.Partition(w, 8))
	if phi <= phiHash {
		t.Fatalf("Fennel phi=%.3f not better than hash %.3f", phi, phiHash)
	}
	counts := make([]int, 8)
	for _, l := range labels {
		counts[l]++
	}
	bound := 1.1 * float64(w.NumVertices()) / 8
	for l, c := range counts {
		if float64(c) > bound+1 {
			t.Fatalf("Fennel partition %d has %d vertices, bound %.0f", l, c, bound)
		}
	}
}

func TestMultilevelQuality(t *testing.T) {
	// On a planted-community graph the multilevel partitioner should
	// essentially recover the communities.
	g, _ := gen.PlantedPartition(2000, 4, 14, 2, 7)
	w := graph.Convert(g)
	labels := Multilevel{Seed: 7}.Partition(w, 4)
	phi := metrics.Phi(w, labels)
	rho := metrics.Rho(w, labels, 4)
	if phi < 0.75 {
		t.Fatalf("multilevel phi=%.3f on planted graph", phi)
	}
	if rho > 1.10 {
		t.Fatalf("multilevel rho=%.3f, want near 1.03", rho)
	}
}

func TestMultilevelBalanceBound(t *testing.T) {
	w := testGraph()
	for _, k := range []int{4, 16} {
		labels := Multilevel{Seed: 9}.Partition(w, k)
		if rho := metrics.Rho(w, labels, k); rho > 1.12 {
			t.Fatalf("k=%d rho=%.3f, exceeds imbalance", k, rho)
		}
	}
}

func TestMultilevelBeatsStreaming(t *testing.T) {
	// Table I ordering: METIS produces the best (or near-best) locality.
	w := testGraph()
	phiML := metrics.Phi(w, Multilevel{Seed: 11}.Partition(w, 8))
	phiLDG := metrics.Phi(w, LDG{Seed: 11}.Partition(w, 8))
	if phiML <= phiLDG {
		t.Fatalf("multilevel phi=%.3f not better than LDG %.3f", phiML, phiLDG)
	}
}

func TestMultilevelK1(t *testing.T) {
	w := testGraph()
	labels := Multilevel{Seed: 1}.Partition(w, 1)
	for _, l := range labels {
		if l != 0 {
			t.Fatal("k=1 nonzero label")
		}
	}
}

func TestMultilevelEmptyGraph(t *testing.T) {
	w := graph.NewWeighted(0)
	if got := (Multilevel{}).Partition(w, 4); len(got) != 0 {
		t.Fatal("empty graph labels")
	}
}

func TestMultilevelDisconnected(t *testing.T) {
	// Several components; region growing must still cover everything.
	w := graph.NewWeighted(300)
	for c := 0; c < 3; c++ {
		base := graph.VertexID(c * 100)
		for i := 0; i < 99; i++ {
			w.AddEdge(base+graph.VertexID(i), base+graph.VertexID(i+1), 1)
		}
	}
	labels := Multilevel{Seed: 13}.Partition(w, 3)
	if err := metrics.ValidateLabels(labels, 3); err != nil {
		t.Fatal(err)
	}
	if rho := metrics.Rho(w, labels, 3); rho > 1.25 {
		t.Fatalf("disconnected rho=%.3f", rho)
	}
}

func TestLPACoarsenQuality(t *testing.T) {
	g, _ := gen.PlantedPartition(2000, 4, 14, 2, 17)
	w := graph.Convert(g)
	labels := LPACoarsen{Seed: 17}.Partition(w, 4)
	phi := metrics.Phi(w, labels)
	phiHash := metrics.Phi(w, Hash{}.Partition(w, 4))
	if phi <= phiHash {
		t.Fatalf("LPACoarsen phi=%.3f not better than hash %.3f", phi, phiHash)
	}
}

func TestLPACoarsenVertexBalanced(t *testing.T) {
	w := testGraph()
	labels := LPACoarsen{Seed: 19}.Partition(w, 8)
	counts := make([]int, 8)
	for _, l := range labels {
		counts[l]++
	}
	target := float64(w.NumVertices()) / 8
	for l, c := range counts {
		if float64(c) > 1.6*target {
			t.Fatalf("LPACoarsen partition %d has %d vertices (target %.0f)", l, c, target)
		}
	}
}

// Property: every partitioner yields complete valid labelings on arbitrary
// graphs.
func TestAllPartitionersProperty(t *testing.T) {
	f := func(seed uint16, kRaw uint8) bool {
		k := int(kRaw%6) + 1
		s := rng.New(uint64(seed))
		n := 30 + s.Intn(120)
		w := graph.Convert(gen.ErdosRenyi(n, int64(3*n), true, uint64(seed)))
		for _, p := range seeded(uint64(seed)) {
			labels := p.partition(w, k)
			if len(labels) != n || metrics.ValidateLabels(labels, k) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestMultilevelFillsEveryPartition: on the hub-skewed Twitter analogue
// every one of k partitions receives vertices, and φ does not collapse at
// one seed — it stays within 0.03 across seeds 1–3.
func TestMultilevelFillsEveryPartition(t *testing.T) {
	for _, k := range []int{32, 64} {
		lo, hi := 1.0, 0.0
		for _, seed := range []uint64{1, 2, 3} {
			w := graph.Convert(gen.Load(gen.TwitterLike, 5000, seed))
			labels := Multilevel{Seed: seed}.Partition(w, k)
			counts := make([]int, k)
			for _, l := range labels {
				counts[l]++
			}
			for l, c := range counts {
				if c == 0 {
					t.Errorf("seed %d k=%d: partition %d is empty", seed, k, l)
				}
			}
			phi := metrics.Phi(w, labels)
			lo, hi = min(lo, phi), max(hi, phi)
		}
		if hi-lo > 0.03 {
			t.Errorf("k=%d: φ spans %.3f–%.3f across seeds 1–3", k, lo, hi)
		}
	}
}
