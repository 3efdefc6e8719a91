package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewEmpty(t *testing.T) {
	g := New(5, true)
	if g.NumVertices() != 5 || g.NumEdges() != 0 || !g.Directed() {
		t.Fatalf("unexpected empty graph state: n=%d m=%d dir=%v", g.NumVertices(), g.NumEdges(), g.Directed())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, _) did not panic")
		}
	}()
	New(-1, false)
}

func TestAddEdgeDirected(t *testing.T) {
	g := New(3, true)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.NumEdges() != 2 || g.NumArcs() != 2 {
		t.Fatalf("edges=%d arcs=%d, want 2/2", g.NumEdges(), g.NumArcs())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("directed edge direction wrong")
	}
}

func TestAddEdgeUndirected(t *testing.T) {
	g := New(3, false)
	g.AddEdge(0, 1)
	if g.NumEdges() != 1 || g.NumArcs() != 2 {
		t.Fatalf("edges=%d arcs=%d, want 1/2", g.NumEdges(), g.NumArcs())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected edge missing a direction")
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	New(2, true).AddEdge(0, 5)
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(0, true)
	b.Add(0, 1)
	b.Add(0, 1)
	b.Add(1, 0)
	b.Add(2, 2) // self loop dropped
	g := b.Build()
	if g.NumVertices() != 3 {
		t.Fatalf("n=%d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 2 { // (0,1) and (1,0) are distinct directed edges
		t.Fatalf("m=%d, want 2", g.NumEdges())
	}
}

func TestBuilderUndirectedDedup(t *testing.T) {
	b := NewBuilder(0, false)
	b.Add(0, 1)
	b.Add(1, 0) // same undirected edge
	b.Add(2, 1)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("m=%d, want 2", g.NumEdges())
	}
}

func TestBuilderEmpty(t *testing.T) {
	g := NewBuilder(4, false).Build()
	if g.NumVertices() != 4 || g.NumEdges() != 0 {
		t.Fatal("empty builder broken")
	}
}

func TestEdgesVisitsAll(t *testing.T) {
	g := New(4, true)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	got := map[[2]VertexID]bool{}
	g.Edges(func(u, v VertexID) { got[[2]VertexID{u, v}] = true })
	if len(got) != 2 || !got[[2]VertexID{0, 1}] || !got[[2]VertexID{2, 3}] {
		t.Fatalf("Edges visited %v", got)
	}
}

func TestSortAdjacency(t *testing.T) {
	g := New(4, true)
	g.AddEdge(0, 3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.SortAdjacency()
	nbrs := g.Neighbors(0)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] > nbrs[i] {
			t.Fatalf("adjacency not sorted: %v", nbrs)
		}
	}
}

// Property: builder output never contains duplicates or self loops.
func TestBuilderProperty(t *testing.T) {
	src := rng.New(99)
	f := func(seed uint16) bool {
		s := rng.New(uint64(seed))
		b := NewBuilder(0, seed%2 == 0)
		n := 2 + s.Intn(20)
		for i := 0; i < 100; i++ {
			b.Add(VertexID(s.Intn(n)), VertexID(s.Intn(n)))
		}
		g := b.Build()
		seen := map[[2]VertexID]bool{}
		ok := true
		g.Edges(func(u, v VertexID) {
			if u == v {
				ok = false
			}
			key := [2]VertexID{u, v}
			if seen[key] {
				ok = false
			}
			seen[key] = true
		})
		return ok
	}
	cfg := &quick.Config{MaxCount: 50, Rand: nil}
	_ = src
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedAddEdge(t *testing.T) {
	w := NewWeighted(3)
	w.AddEdge(0, 1, 2)
	w.AddEdge(1, 2, 1)
	if w.NumEdges() != 2 {
		t.Fatalf("edges=%d, want 2", w.NumEdges())
	}
	if w.TotalWeight() != 3 {
		t.Fatalf("total weight=%d, want 3", w.TotalWeight())
	}
	if w.WeightedDegree(1) != 3 {
		t.Fatalf("deg_w(1)=%d, want 3", w.WeightedDegree(1))
	}
	if w.Degree(1) != 2 {
		t.Fatalf("deg(1)=%d, want 2", w.Degree(1))
	}
}

func TestWeightedEdgesOnce(t *testing.T) {
	w := NewWeighted(3)
	w.AddEdge(0, 1, 2)
	w.AddEdge(2, 1, 1)
	count := 0
	w.EdgesOnce(func(u, v VertexID, weight int32) {
		if u >= v {
			t.Fatalf("EdgesOnce gave u=%d >= v=%d", u, v)
		}
		count++
	})
	if count != 2 {
		t.Fatalf("EdgesOnce visited %d, want 2", count)
	}
}

func TestConvertXORWeight(t *testing.T) {
	// 0->1 only; 1->2 and 2->1 both.
	g := New(3, true)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	w := Convert(g)
	if w.NumEdges() != 2 {
		t.Fatalf("converted edges=%d, want 2", w.NumEdges())
	}
	wantWeight := func(u, v VertexID, want int32) {
		t.Helper()
		for _, a := range w.Neighbors(u) {
			if a.To == v {
				if a.Weight != want {
					t.Fatalf("w(%d,%d)=%d, want %d", u, v, a.Weight, want)
				}
				return
			}
		}
		t.Fatalf("edge {%d,%d} missing", u, v)
	}
	wantWeight(0, 1, 1)
	wantWeight(1, 2, 2)
	// TotalWeight equals the number of directed arcs: 3.
	if w.TotalWeight() != 3 {
		t.Fatalf("total weight=%d, want 3 (number of directed arcs)", w.TotalWeight())
	}
}

func TestConvertFigure1(t *testing.T) {
	// The example of Fig. 1: vertices 1,2,3 with arcs forming mixed
	// reciprocal/one-way links. Use 0-based IDs: arcs 0->1, 1->0, 1->2.
	g := New(3, true)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	w := Convert(g)
	var w01, w12 int32
	for _, a := range w.Neighbors(1) {
		switch a.To {
		case 0:
			w01 = a.Weight
		case 2:
			w12 = a.Weight
		}
	}
	if w01 != 2 || w12 != 1 {
		t.Fatalf("w(0,1)=%d w(1,2)=%d, want 2 and 1", w01, w12)
	}
}

func TestConvertUndirectedInput(t *testing.T) {
	g := New(3, false)
	g.AddEdge(0, 1)
	w := Convert(g)
	if w.NumEdges() != 1 {
		t.Fatalf("edges=%d, want 1", w.NumEdges())
	}
	if w.Neighbors(0)[0].Weight != 2 {
		t.Fatalf("undirected edge weight=%d, want 2", w.Neighbors(0)[0].Weight)
	}
	// An edge stored twice, once each way, is still one edge of weight 2.
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	w = Convert(g)
	if w.NumEdges() != 2 || w.TotalWeight() != 4 || !slices.Equal(w.Neighbors(1), []WeightedArc{{0, 2}, {2, 2}}) {
		t.Fatalf("repeated edge: %d edges of weight %d, row 1 %v", w.NumEdges(), w.TotalWeight(), w.Neighbors(1))
	}
}

func TestConvertIgnoresSelfLoops(t *testing.T) {
	g := New(2, true)
	g.adj[0] = append(g.adj[0], 0) // raw self-loop
	g.numArcs++
	g.AddEdge(0, 1)
	w := Convert(g)
	if w.NumEdges() != 1 {
		t.Fatalf("edges=%d, want 1 (self-loop dropped)", w.NumEdges())
	}
}

// Property: conversion preserves the handshake identity
// Σ_v deg_w(v) = 2 * TotalWeight, and TotalWeight equals the number of
// directed arcs among distinct endpoints.
func TestConvertProperty(t *testing.T) {
	f := func(seed uint16) bool {
		s := rng.New(uint64(seed))
		n := 3 + s.Intn(40)
		b := NewBuilder(n, true)
		for i := 0; i < 4*n; i++ {
			b.Add(VertexID(s.Intn(n)), VertexID(s.Intn(n)))
		}
		g := b.Build()
		w := Convert(g)
		var degSum int64
		for v := 0; v < w.NumVertices(); v++ {
			degSum += w.WeightedDegree(VertexID(v))
		}
		return degSum == 2*w.TotalWeight() && w.TotalWeight() == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: conversion is symmetric — if v appears in adj[u] with weight w,
// u appears in adj[v] with the same weight.
func TestConvertSymmetry(t *testing.T) {
	f := func(seed uint16) bool {
		s := rng.New(uint64(seed))
		n := 3 + s.Intn(30)
		b := NewBuilder(n, true)
		for i := 0; i < 3*n; i++ {
			b.Add(VertexID(s.Intn(n)), VertexID(s.Intn(n)))
		}
		w := Convert(b.Build())
		for u := 0; u < w.NumVertices(); u++ {
			for _, a := range w.Neighbors(VertexID(u)) {
				found := false
				for _, back := range w.Neighbors(a.To) {
					if back.To == VertexID(u) && back.Weight == a.Weight {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedClone(t *testing.T) {
	w := NewWeighted(3)
	w.AddEdge(0, 1, 1)
	c := w.Clone()
	c.AddEdge(1, 2, 2)
	if w.NumEdges() != 1 || c.NumEdges() != 2 {
		t.Fatal("weighted clone not independent")
	}
}

func TestWeightedAddVertices(t *testing.T) {
	w := NewWeighted(2)
	first := w.AddVertices(2)
	if first != 2 || w.NumVertices() != 4 {
		t.Fatalf("first=%d n=%d", first, w.NumVertices())
	}
}
