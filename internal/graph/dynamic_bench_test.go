package graph

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/rng"
)

// churnCase builds a ring lattice on n vertices (each joined to its next
// three, weight 2) and a batch over it: adds random fresh-or-parallel
// edges and removals distinct lattice edges, both spread over the whole
// vertex range.
func churnCase(n, adds, removals int) (*Weighted, *Mutation) {
	w := NewWeighted(n)
	for v := 0; v < n; v++ {
		for d := 1; d <= 3; d++ {
			w.AddEdge(VertexID(v), VertexID((v+d)%n), 2)
		}
	}
	src := rng.New(uint64(n + adds))
	m := &Mutation{}
	for len(m.NewEdges) < adds {
		if u, v := VertexID(src.Intn(n)), VertexID(src.Intn(n)); u != v {
			m.NewEdges = append(m.NewEdges, WeightedEdgeRecord{U: u, V: v, Weight: 2})
		}
	}
	for i := 0; i < removals; i++ {
		v := i * (n / removals)
		m.RemovedEdges = append(m.RemovedEdges, Edge{From: VertexID((v + 1) % n), To: VertexID(v)})
	}
	return w, m
}

// Complexity guards. A batch must cost O(|batch| + Σ deg of removed
// endpoints): at a8d944e validate and CutEdits each rescanned NewEdges once
// per removal (2 × 10¹⁰ pair comparisons here, over 10 s) and
// TouchedVertices insertion-sorted (over 5 s); indexed, they take tens of
// milliseconds. The deadlines leave two orders of magnitude for a loaded
// host or the race detector, and still fail anything quadratic.
func TestMutationCostIsLinearInBatch(t *testing.T) {
	w, m := churnCase(100_000, 200_000, 50_000)
	start := time.Now()
	edits, err := m.effects(w, nil, true)
	if err != nil || len(edits) != 250_000 {
		t.Fatalf("effects = %d edits, %v", len(edits), err)
	}
	if _, err := m.Apply(w); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("effects + Apply of 200 000 additions and 50 000 removals took %v, want under 2 s", d)
	}
	start = time.Now()
	touched := m.TouchedVertices()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("TouchedVertices over %d vertices took %v, want under 1 s", len(touched), d)
	}
	if len(touched) < 90_000 {
		t.Fatalf("batch touches only %d vertices; the guard needs it spread over the graph", len(touched))
	}
}

// BenchmarkMutationApply is the graph work of the serving store's general
// path, ApplyEdits, on a 100 000-vertex graph for batches of 1 k, 10 k and
// 100 k edges, a quarter of them removals. ns/edge must stay flat across
// the sizes.
func BenchmarkMutationApply(b *testing.B) {
	for _, edges := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("edges=%d", edges), func(b *testing.B) {
			base, m := churnCase(100_000, edges-edges/4, edges/4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := base.Clone() // ApplyEdits consumes the graph
				b.StartTimer()
				if _, _, err := m.ApplyEdits(w, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
		})
	}
}
