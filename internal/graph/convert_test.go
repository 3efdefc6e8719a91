package graph

import (
	"bytes"
	"math/bits"
	"testing"

	"repro/internal/rng"
)

// convertByAppend is Convert as it was before it counted degrees first:
// every pair appended to two growing rows. It defines the row order that
// EncodeBinary, the serving layer's checkpoints and Mutation.Apply see. An
// undirected input takes the same path — each stored edge is an out- and an
// in-arc of both ends — so an edge it stores twice still appends once.
func convertByAppend(g *Graph) *Weighted {
	n := g.NumVertices()
	w := NewWeighted(n)
	in := make([][]VertexID, n)
	g.Edges(func(u, v VertexID) {
		if u != v {
			in[v] = append(in[v], u)
		}
	})
	for ui := 0; ui < n; ui++ {
		u := VertexID(ui)
		mark := map[VertexID]byte{}
		var order []VertexID
		see := func(v VertexID, bit byte) {
			if v == u {
				return
			}
			if mark[v] == 0 {
				order = append(order, v)
			}
			mark[v] |= bit
		}
		for _, v := range g.Neighbors(u) {
			see(v, 1)
		}
		for _, v := range in[u] {
			see(v, 2)
		}
		for _, v := range order {
			if u < v {
				w.AddEdge(u, v, int32(1+mark[v]/3))
			}
		}
	}
	return w
}

func encoded(t *testing.T, w *Weighted) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConvertLayout: the arena-backed Convert yields byte-for-byte the
// graph the appending one did (repeated arcs, repeated undirected edges,
// self-loops and isolated vertices included), every row is a capacity-clamped window with the slack
// doubling would have left it, and growing rows afterwards — within the
// window and past it — leaves the others intact.
func TestConvertLayout(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		s := rng.New(seed)
		n := 2 + s.Intn(80)
		g := New(n, seed%3 != 0)
		for i, m := 0, s.Intn(6*n); i < m; i++ {
			g.AddEdge(VertexID(s.Intn(n)), VertexID(s.Intn(n))) // no dedup, self-loops allowed
		}
		got, want := Convert(g), convertByAppend(g)
		if !bytes.Equal(encoded(t, got), encoded(t, want)) {
			t.Fatalf("seed %d (directed=%v): Convert differs from the appending conversion", seed, g.Directed())
		}
		for u := 0; u < n; u++ {
			row := got.Neighbors(VertexID(u))
			want := 0
			if len(row) > 0 {
				want = 1 << bits.Len(uint(len(row)-1))
			}
			if cap(row) != want {
				t.Fatalf("seed %d: row %d has len %d cap %d, want cap %d", seed, u, len(row), cap(row), want)
			}
		}
		// Some rows grow within their window, vertex 0's far past it.
		mut := &Mutation{NewVertices: 2}
		for v := 1; v < n; v++ {
			mut.NewEdges = append(mut.NewEdges, WeightedEdgeRecord{U: 0, V: VertexID(v), Weight: 2})
		}
		for i := 0; i < 1+n/2; i++ {
			u, v := VertexID(s.Intn(n+2)), VertexID(s.Intn(n+2))
			if u != v {
				mut.NewEdges = append(mut.NewEdges, WeightedEdgeRecord{U: u, V: v, Weight: 1})
			}
		}
		for _, w := range []*Weighted{got, want} {
			if _, err := mut.Apply(w); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(encoded(t, got), encoded(t, want)) {
			t.Fatalf("seed %d: graphs differ after the same mutation: a row grew into its neighbour", seed)
		}
	}
}
