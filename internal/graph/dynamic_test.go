package graph

import (
	"math"
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

// TestReAddedEdgeMergesAndRemovesWhole: adding an edge twice leaves one arc
// per row holding both weights, and one removal takes the edge and all of
// its weight.
func TestReAddedEdgeMergesAndRemovesWhole(t *testing.T) {
	w := NewWeighted(2)
	w.AddEdge(0, 1, 1)
	w.AddEdge(1, 0, 2)
	if r0, r1 := w.Neighbors(0), w.Neighbors(1); !slices.Equal(r0, []WeightedArc{{1, 3}}) || !slices.Equal(r1, []WeightedArc{{0, 3}}) {
		t.Fatalf("rows after a re-add: 0 %v, 1 %v; want (1,3) and (0,3)", r0, r1)
	}
	if w.NumEdges() != 1 || w.TotalWeight() != 3 || w.Degree(0) != 1 || w.WeightedDegree(0) != 3 {
		t.Fatalf("edges %d, total weight %d, degree %d, weighted degree %d", w.NumEdges(), w.TotalWeight(), w.Degree(0), w.WeightedDegree(0))
	}
	if !w.RemoveEdge(0, 1) || w.NumEdges() != 0 || w.TotalWeight() != 0 {
		t.Fatalf("removal left %d edges of weight %d", w.NumEdges(), w.TotalWeight())
	}
	if w.RemoveEdge(0, 1) {
		t.Fatal("a removed edge removed again")
	}
	// The weight saturates rather than wrapping.
	w.AddEdge(0, 1, math.MaxInt32)
	w.AddEdge(0, 1, math.MaxInt32)
	if w.Neighbors(1)[0].Weight != math.MaxInt32 || w.TotalWeight() != math.MaxInt32 {
		t.Fatalf("saturated edge: row 1 %v, total weight %d", w.Neighbors(1), w.TotalWeight())
	}
}

// TestRemoveEdgeKeepsRowsMirrored: a swap-delete reorders u's row, and the
// edge merged into it afterwards and then removed still leaves each row
// holding exactly the other's remaining arcs, and the totals what remains.
func TestRemoveEdgeKeepsRowsMirrored(t *testing.T) {
	w := NewWeighted(4)
	w.AddEdge(1, 2, 1)
	w.AddEdge(0, 1, 1)
	w.AddEdge(1, 3, 2)
	if !w.RemoveEdge(1, 2) { // row 1 [(2,1) (0,1) (3,2)] becomes [(3,2) (0,1)]
		t.Fatal("removal of {1,2} failed")
	}
	w.AddEdge(0, 1, 2)
	if got := w.Neighbors(1); !slices.Equal(got, []WeightedArc{{3, 2}, {0, 3}}) {
		t.Fatalf("row 1 = %v before the removal under test", got)
	}
	if !w.RemoveEdge(1, 0) {
		t.Fatal("removal of {0,1} failed")
	}
	if r0, r1, r3 := w.Neighbors(0), w.Neighbors(1), w.Neighbors(3); len(r0) != 0 || !slices.Equal(r1, []WeightedArc{{3, 2}}) || !slices.Equal(r3, []WeightedArc{{1, 2}}) {
		t.Fatalf("rows after removal: 0 %v, 1 %v, 3 %v; want none, (3,2) and (1,2)", r0, r1, r3)
	}
	if w.NumEdges() != 1 || w.TotalWeight() != 2 || w.WeightedDegree(1)+w.WeightedDegree(3) != 2*w.TotalWeight() {
		t.Fatalf("edges %d, total weight %d, weighted degrees %d+%d", w.NumEdges(), w.TotalWeight(), w.WeightedDegree(1), w.WeightedDegree(3))
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
