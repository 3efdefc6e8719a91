package graph

import "testing"

func TestConnectedComponentsUndirected(t *testing.T) {
	g := New(6, false)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	labels, count := ConnectedComponents(g)
	if count != 3 { // {0,1,2}, {3,4}, {5}
		t.Fatalf("components=%d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("component {0,1,2} split")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Fatal("component {3,4} wrong")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Fatal("isolated vertex merged")
	}
}

func TestConnectedComponentsWeaklyDirected(t *testing.T) {
	g := New(4, true)
	g.AddEdge(0, 1)
	g.AddEdge(2, 1) // weakly connects 2 to {0,1}
	labels, count := ConnectedComponents(g)
	if count != 2 {
		t.Fatalf("weak components=%d, want 2", count)
	}
	if labels[0] != labels[2] {
		t.Fatal("weakly connected vertices 0 and 2 in different components")
	}
}

func TestMutationApply(t *testing.T) {
	w := NewWeighted(3)
	w.AddEdge(0, 1, 1)
	m := &Mutation{NewVertices: 1, NewEdges: []WeightedEdgeRecord{{U: 2, V: 3, Weight: 2}, {U: 0, V: 2}}}
	first, err := m.Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	if first != 3 || w.NumVertices() != 4 {
		t.Fatalf("first=%d n=%d", first, w.NumVertices())
	}
	if w.NumEdges() != 3 {
		t.Fatalf("edges=%d, want 3", w.NumEdges())
	}
	// Default weight is 1 for the zero-weight record.
	found := false
	for _, a := range w.Neighbors(0) {
		if a.To == 2 && a.Weight == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("default-weight edge missing")
	}
}

func TestMutationApplyErrors(t *testing.T) {
	w := NewWeighted(2)
	if _, err := (&Mutation{NewEdges: []WeightedEdgeRecord{{U: 0, V: 9}}}).Apply(w); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := (&Mutation{NewEdges: []WeightedEdgeRecord{{U: 1, V: 1}}}).Apply(w); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := (&Mutation{NewVertices: -1}).Apply(w); err == nil {
		t.Fatal("negative vertex count accepted")
	}
	// A hostile append past MaxVertices must be rejected before any
	// allocation happens (and without overflow tripping the check).
	if _, err := (&Mutation{NewVertices: MaxVertices + 1}).Apply(w); err == nil {
		t.Fatal("append past MaxVertices accepted")
	}
	if _, err := (&Mutation{NewVertices: int(^uint(0) >> 1)}).Apply(w); err == nil {
		t.Fatal("overflowing vertex count accepted")
	}
	if w.NumVertices() != 2 {
		t.Fatalf("rejected mutations mutated the graph: %d vertices", w.NumVertices())
	}
}

func TestMutationTouchedVertices(t *testing.T) {
	m := &Mutation{NewEdges: []WeightedEdgeRecord{{U: 5, V: 1}, {U: 1, V: 3}}}
	got := m.TouchedVertices()
	want := []VertexID{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("touched=%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("touched=%v, want %v", got, want)
		}
	}
}
