package graph

import (
	"slices"
	"testing"
)

func TestRemoveEdge(t *testing.T) {
	w := NewWeighted(3)
	w.AddEdge(0, 1, 2)
	w.AddEdge(1, 2, 1)
	if !w.RemoveEdge(0, 1) {
		t.Fatal("existing edge not removed")
	}
	if w.NumEdges() != 1 || w.TotalWeight() != 1 {
		t.Fatalf("edges=%d weight=%d after removal", w.NumEdges(), w.TotalWeight())
	}
	if w.Degree(0) != 0 || w.Degree(1) != 1 {
		t.Fatalf("degrees wrong after removal: %d %d", w.Degree(0), w.Degree(1))
	}
	if w.RemoveEdge(0, 1) {
		t.Fatal("absent edge reported removed")
	}
}

func TestRemoveEdgeReverseDirection(t *testing.T) {
	w := NewWeighted(2)
	w.AddEdge(0, 1, 1)
	if !w.RemoveEdge(1, 0) {
		t.Fatal("removal via reverse endpoint order failed")
	}
	if w.NumEdges() != 0 {
		t.Fatal("edge not fully removed")
	}
}

func TestRemoveEdgeParallel(t *testing.T) {
	// Two parallel edges: each removal takes one.
	w := NewWeighted(2)
	w.AddEdge(0, 1, 1)
	w.AddEdge(0, 1, 2)
	if !w.RemoveEdge(0, 1) || w.NumEdges() != 1 {
		t.Fatal("first parallel removal wrong")
	}
	if !w.RemoveEdge(0, 1) || w.NumEdges() != 0 {
		t.Fatal("second parallel removal wrong")
	}
	if w.TotalWeight() != 0 {
		t.Fatalf("residual weight %d", w.TotalWeight())
	}
}

// TestRemoveEdgeKeepsRowsMirrored: u holds parallel arcs to v of weights 1
// and 2, and a swap-delete elsewhere has put v's weight-2 arc to u first in
// v's row. Removing {u,v} takes u's first arc, of weight 1, and must take
// v's weight-1 arc too — not v's first arc — so that each row keeps the
// other's remaining weight and the total drops by what was removed.
func TestRemoveEdgeKeepsRowsMirrored(t *testing.T) {
	w := NewWeighted(3)
	w.AddEdge(1, 2, 1)
	w.AddEdge(0, 1, 1)
	w.AddEdge(0, 1, 2)
	if !w.RemoveEdge(1, 2) { // row 1 [(2,1) (0,1) (0,2)] becomes [(0,2) (0,1)]
		t.Fatal("removal of {1,2} failed")
	}
	if got := w.Neighbors(1); !slices.Equal(got, []WeightedArc{{0, 2}, {0, 1}}) {
		t.Fatalf("row 1 = %v before the removal under test", got)
	}
	if !w.RemoveEdge(0, 1) {
		t.Fatal("removal of {0,1} failed")
	}
	if r0, r1 := w.Neighbors(0), w.Neighbors(1); !slices.Equal(r0, []WeightedArc{{1, 2}}) || !slices.Equal(r1, []WeightedArc{{0, 2}}) {
		t.Fatalf("rows after removal: 0 %v, 1 %v; want (1,2) and (0,2)", r0, r1)
	}
	if w.NumEdges() != 1 || w.TotalWeight() != 2 || w.WeightedDegree(0)+w.WeightedDegree(1) != 2*w.TotalWeight() {
		t.Fatalf("edges %d, total weight %d, weighted degrees %d+%d", w.NumEdges(), w.TotalWeight(), w.WeightedDegree(0), w.WeightedDegree(1))
	}
}

func TestMutationWithRemovals(t *testing.T) {
	w := NewWeighted(4)
	w.AddEdge(0, 1, 1)
	w.AddEdge(1, 2, 1)
	w.AddEdge(2, 3, 1)
	m := &Mutation{
		NewEdges:     []WeightedEdgeRecord{{U: 0, V: 3, Weight: 2}},
		RemovedEdges: []Edge{{From: 1, To: 2}},
	}
	if _, err := m.Apply(w); err != nil {
		t.Fatal(err)
	}
	if w.NumEdges() != 3 {
		t.Fatalf("edges=%d, want 3", w.NumEdges())
	}
	// Removal endpoints count as touched.
	touched := m.TouchedVertices()
	want := map[VertexID]bool{0: true, 1: true, 2: true, 3: true}
	for _, v := range touched {
		delete(want, v)
	}
	if len(want) != 0 {
		t.Fatalf("touched missing %v", want)
	}
}

func TestMutationRemovalErrors(t *testing.T) {
	w := NewWeighted(2)
	w.AddEdge(0, 1, 1)
	if _, err := (&Mutation{RemovedEdges: []Edge{{From: 0, To: 9}}}).Apply(w); err == nil {
		t.Fatal("out-of-range removal accepted")
	}
	if _, err := (&Mutation{RemovedEdges: []Edge{{From: 1, To: 0}, {From: 1, To: 0}}}).Apply(w); err == nil {
		t.Fatal("double removal of a single edge accepted")
	}
}
