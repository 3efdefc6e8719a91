package graph

import (
	"bytes"
	"fmt"
	"math/bits"
	"runtime"
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

// TestConvertLayout: the row-local Convert yields byte-for-byte the graph
// the appending one did (repeated arcs, repeated undirected edges,
// self-loops and isolated vertices included), every row is a
// capacity-clamped window with the slack doubling would have left it, and
// growing rows afterwards — within the window and past it — leaves the
// others intact. Each graph is converted at GOMAXPROCS 1, 2, 3 and 4, and
// the sizes run from fewer vertices than goroutines (1–3) to thousands,
// where every split boundary falls between compared rows.
func TestConvertLayout(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for seed := uint64(1); seed <= 66; seed++ {
		s := rng.New(seed)
		n := 2 + s.Intn(80)
		switch {
		case seed > 63:
			n = 1000 + s.Intn(4000)
		case seed > 60:
			n = int(seed - 60)
		}
		g := New(n, seed%3 != 0)
		for i, m := 0, s.Intn(6*n); i < m; i++ {
			g.AddEdge(VertexID(s.Intn(n)), VertexID(s.Intn(n))) // no dedup, self-loops allowed
		}
		for _, procs := range []int{1, 2, 3, 4} {
			runtime.GOMAXPROCS(procs)
			what := fmt.Sprintf("seed %d (n=%d directed=%v) at GOMAXPROCS %d", seed, n, g.Directed(), procs)
			checkConvert(t, what, g, rng.New(seed))
		}
	}
}

// checkConvert compares Convert(g) with convertByAppend(g) as
// TestConvertLayout describes, growing both graphs by a mutation drawn
// from s.
func checkConvert(t *testing.T, what string, g *Graph, s *rng.Source) {
	t.Helper()
	n := g.NumVertices()
	got, want := Convert(g), convertByAppend(g)
	if !bytes.Equal(encoded(t, got), encoded(t, want)) {
		t.Fatalf("%s: Convert differs from the appending conversion", what)
	}
	if got.TotalWeight() != want.TotalWeight() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: totals %d weight, %d edges; want %d, %d", what, got.TotalWeight(), got.NumEdges(), want.TotalWeight(), want.NumEdges())
	}
	for u := 0; u < n; u++ {
		row := got.Neighbors(VertexID(u))
		want := 0
		if len(row) > 0 {
			want = 1 << bits.Len(uint(len(row)-1))
		}
		if cap(row) != want {
			t.Fatalf("%s: row %d has len %d cap %d, want cap %d", what, u, len(row), cap(row), want)
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
		t.Fatalf("%s: graphs differ after the same mutation: a row grew into its neighbour", what)
	}
}

// FuzzConvert holds Convert to the appending conversion on an edge list
// decoded from fuzzed bytes: the first byte sets the vertex count (1–64),
// each following pair of bytes is an arc, self-loops and repeats allowed,
// and the graph is converted as directed and as undirected.
func FuzzConvert(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 0, 1, 2, 2, 2})
	f.Add([]byte{5, 4, 0, 4, 0, 0, 4, 3, 1, 1, 3})
	f.Add([]byte{1, 0, 0})
	for seed := uint64(1); seed <= 4; seed++ {
		src, data := rng.New(seed), make([]byte, 128)
		for i := range data {
			data[i] = byte(src.Intn(256))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		for _, directed := range []bool{true, false} {
			g := New(n, directed)
			for i := 1; i+1 < len(data); i += 2 {
				g.AddEdge(VertexID(int(data[i])%n), VertexID(int(data[i+1])%n))
			}
			checkConvert(t, fmt.Sprintf("n=%d directed=%v", n, directed), g, rng.New(uint64(len(data))))
		}
	})
}
