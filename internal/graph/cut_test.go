package graph

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// cutWeightsExact recomputes (cross, total, perPart) from scratch — the
// reference the incremental deltas must stay bit-identical to.
func cutWeightsExact(w *Weighted, labels []int32, k int) (cross, total int64, perPart []int64) {
	perPart = make([]int64, k)
	w.EdgesOnce(func(u, v VertexID, weight int32) {
		total += int64(weight)
		if labels[u] != labels[v] {
			cross += int64(weight)
			perPart[labels[u]] += int64(weight)
			perPart[labels[v]] += int64(weight)
		}
	})
	return cross, total, perPart
}

// Randomized sequences of add/remove/grow batches, re-adding existing
// pairs at differing weights: folding each batch's CutDelta into running
// counters must stay exactly equal to a fresh recompute after every
// application.
func TestCutDeltaMatchesExactRecompute(t *testing.T) {
	const k = 4
	src := rng.New(99)
	// A zero weight exercises Apply's default-to-1 normalization.
	pairWeight := func(u, v VertexID) int32 {
		if (u+v)%5 == 0 {
			return 0
		}
		return int32(1 + src.Intn(3))
	}
	w := NewWeighted(30)
	labels := make([]int32, 30)
	for v := range labels {
		labels[v] = int32(src.Intn(k))
	}
	for i := 0; i < 60; i++ {
		u, v := VertexID(src.Intn(30)), VertexID(src.Intn(30))
		if u != v {
			weight := pairWeight(u, v)
			if weight == 0 {
				weight = 1
			}
			w.AddEdge(u, v, weight)
		}
	}
	cross, total, perPart := cutWeightsExact(w, labels, k)

	for step := 0; step < 200; step++ {
		m := &Mutation{}
		// Adds between existing (and occasionally appended) vertices.
		if src.Intn(4) == 0 {
			m.NewVertices = 1 + src.Intn(2)
		}
		n := VertexID(w.NumVertices() + m.NewVertices)
		for i := src.Intn(5); i > 0; i-- {
			u, v := VertexID(src.Intn(int(n))), VertexID(src.Intn(int(n)))
			if u != v {
				m.NewEdges = append(m.NewEdges, WeightedEdgeRecord{U: u, V: v, Weight: pairWeight(u, v)})
			}
		}
		// Removals of randomly chosen existing edges.
		for i := src.Intn(3); i > 0 && w.NumEdges() > 0; i-- {
			u := VertexID(src.Intn(w.NumVertices()))
			if w.Degree(u) == 0 {
				continue
			}
			a := w.Neighbors(u)[src.Intn(w.Degree(u))]
			m.RemovedEdges = append(m.RemovedEdges, Edge{From: u, To: a.To})
		}

		// Post-mutation labels: appended vertices get arbitrary labels
		// before the delta is computed, mirroring serve's seed-then-delta
		// ordering.
		grown := labels
		if m.NewVertices > 0 {
			grown = make([]int32, int(n))
			copy(grown, labels)
			for v := w.NumVertices(); v < int(n); v++ {
				grown[v] = int32(src.Intn(k))
			}
		}
		edits, derr := m.effects(w, nil, true)
		if _, err := m.Apply(w); err != nil {
			// Random removals can collide (one edge twice); the batch is
			// rejected atomically, for the reason effects gives.
			if derr == nil || derr.Error() != err.Error() {
				t.Fatalf("step %d: Apply rejected the batch with %v, effects with %v", step, err, derr)
			}
			continue
		}
		labels = grown
		if derr != nil {
			t.Fatalf("step %d: effects failed on a batch Apply accepted: %v", step, derr)
		}
		// Fold the edits the way the serving layer does.
		for _, e := range edits {
			weight := int64(e.Weight)
			if !e.Add {
				weight = -weight
			}
			total += weight
			if lu, lv := grown[e.U], grown[e.V]; lu != lv {
				cross += weight
				perPart[lu] += weight
				perPart[lv] += weight
			}
		}
		ec, et, ep := cutWeightsExact(w, labels, k)
		if cross != ec || total != et {
			t.Fatalf("step %d: incremental (cross=%d,total=%d) != exact (cross=%d,total=%d)",
				step, cross, total, ec, et)
		}
		for l := range ep {
			if perPart[l] != ep[l] {
				t.Fatalf("step %d: perPart[%d] incremental %d != exact %d", step, l, perPart[l], ep[l])
			}
		}
	}
}

func TestCutEditsErrors(t *testing.T) {
	w := NewWeighted(4)
	w.AddEdge(0, 1, 2)
	for _, m := range []*Mutation{
		{NewEdges: []WeightedEdgeRecord{{U: 0, V: 9}}},
		{NewEdges: []WeightedEdgeRecord{{U: 2, V: 2}}},
		{RemovedEdges: []Edge{{From: 2, To: 3}}},
		{RemovedEdges: []Edge{{From: 0, To: 1}, {From: 1, To: 0}}},
		{NewVertices: -1},
	} {
		if _, err := m.effects(w, nil, true); err == nil {
			t.Fatalf("effects(%+v) accepted an invalid batch", m)
		}
	}
	// A re-added edge is one edge: its added weights, then all of it, leave
	// with one removal — and a second removal finds it gone.
	w.AddEdge(0, 1, 5)
	readd := &Mutation{NewEdges: []WeightedEdgeRecord{{U: 1, V: 0, Weight: 3}}, RemovedEdges: []Edge{{From: 0, To: 1}}}
	edits, err := readd.effects(w, nil, true)
	if want := []CutEdit{{U: 0, V: 1, Weight: 3, Add: true}, {U: 0, V: 1, Weight: 10}}; err != nil || !slices.Equal(edits, want) {
		t.Fatalf("re-add then remove: edits=%v err=%v, want %v", edits, err, want)
	}
	readd.RemovedEdges = append(readd.RemovedEdges, Edge{From: 1, To: 0})
	if _, err := readd.effects(w, nil, true); err == nil {
		t.Fatal("a second removal of a merged edge accepted")
	}
	// Weights saturate: an edit carries the weight actually added.
	w2 := NewWeighted(2)
	w2.AddEdge(0, 1, math.MaxInt32-1)
	sat := &Mutation{NewEdges: []WeightedEdgeRecord{{U: 0, V: 1, Weight: 5}, {U: 1, V: 0, Weight: 5}}}
	edits, err = sat.effects(w2, nil, true)
	if want := []CutEdit{{U: 0, V: 1, Weight: 1, Add: true}, {U: 0, V: 1, Weight: 0, Add: true}}; err != nil || !slices.Equal(edits, want) {
		t.Fatalf("saturating additions: edits=%v err=%v, want %v", edits, err, want)
	}
}

// insertArc is half an edge and leaves the totals alone; AddEdge adjusts
// them by the weight insertArc reports, saturation included.
func TestInsertArcAndAdjustTotals(t *testing.T) {
	w := NewWeighted(3)
	if added, isNew := w.insertArc(0, 1, 4); added != 4 || !isNew {
		t.Fatalf("first insert: added %d, new %v", added, isNew)
	}
	if w.NumEdges() != 0 || w.TotalWeight() != 0 || len(w.Neighbors(1)) != 0 {
		t.Fatalf("insertArc touched totals or the other row: edges=%d weight=%d row1=%v", w.NumEdges(), w.TotalWeight(), w.Neighbors(1))
	}
	// A second insertion merges into the arc and says so.
	if added, isNew := w.insertArc(0, 1, 3); added != 3 || isNew || len(w.Neighbors(0)) != 1 || w.Neighbors(0)[0].Weight != 7 {
		t.Fatalf("re-insert: added %d, new %v, row %v", added, isNew, w.Neighbors(0))
	}
	w.removeArc(0, 1)

	w.AddEdge(0, 1, 4)
	w.AddEdge(1, 0, 3)
	if w.NumEdges() != 1 || w.TotalWeight() != 7 {
		t.Fatalf("totals after merged add: edges=%d weight=%d", w.NumEdges(), w.TotalWeight())
	}
	if w.WeightedDegree(0) != 7 || w.WeightedDegree(1) != 7 {
		t.Fatalf("degrees %d,%d", w.WeightedDegree(0), w.WeightedDegree(1))
	}
	// Saturation: the totals grow by what the arc could take, not by weight.
	w.AddEdge(0, 1, math.MaxInt32)
	if got := w.EdgeWeight(0, 1); got != math.MaxInt32 || w.TotalWeight() != math.MaxInt32 {
		t.Fatalf("saturated add: edge weight %d, total %d", got, w.TotalWeight())
	}
	if !w.RemoveEdge(0, 1) {
		t.Fatal("merged edge not removable")
	}
	if w.NumEdges() != 0 || w.TotalWeight() != 0 {
		t.Fatalf("totals after removal: edges=%d weight=%d", w.NumEdges(), w.TotalWeight())
	}
}
