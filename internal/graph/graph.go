// Package graph provides the in-memory graph substrate used throughout the
// Spinner reproduction: directed and undirected adjacency-list graphs, the
// directed→weighted-undirected conversion of Eq. 3 in the paper, dynamic
// mutation batches for the incremental-repartitioning experiments, edge-list
// I/O, and connected components.
//
// Vertices are dense integers in [0, NumVertices()). This mirrors the data
// model of Pregel-style systems, where vertex identifiers are remapped to a
// dense range at load time, and keeps every per-vertex table a flat slice.
package graph

import (
	"fmt"
	"slices"
)

// VertexID identifies a vertex. IDs are dense: a graph with n vertices uses
// exactly the IDs 0..n-1.
type VertexID int32

// Edge is a directed edge (or one endpoint-ordered record of an undirected
// edge) used in construction and mutation batches.
type Edge struct {
	From, To VertexID
}

// Graph is an adjacency-list graph. For directed graphs adj[u] holds the
// out-neighbors of u. For undirected graphs every edge {u,v} is stored in
// both adj[u] and adj[v].
//
// Graphs produced by Builder.Build are backed by a CSR (compressed sparse
// row) arena: one flat target array plus per-vertex offset windows that the
// adj slices alias. The flat layout keeps the LPA edge scans cache-friendly
// while the adj indirection preserves the Neighbors API; the windows are
// capacity-clamped, so a later AddEdge copies the touched list out of the
// arena instead of corrupting its neighbor.
//
// Graph is immutable-by-convention after construction except through the
// explicit mutation API in dynamic.go; concurrent readers are safe as long
// as no mutation is in flight.
type Graph struct {
	directed bool
	adj      [][]VertexID
	numArcs  int64 // number of stored adjacency entries
	sorted   bool  // every adjacency list is ascending (enables binary search)
}

// New returns an empty graph with n vertices and no edges.
func New(n int, directed bool) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{directed: directed, adj: make([][]VertexID, n)}
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumArcs returns the number of stored adjacency entries. For a directed
// graph this is the number of edges; for an undirected graph it is twice
// the number of edges.
func (g *Graph) NumArcs() int64 { return g.numArcs }

// NumEdges returns the number of edges: arcs for a directed graph, arcs/2
// for an undirected one.
func (g *Graph) NumEdges() int64 {
	if g.directed {
		return g.numArcs
	}
	return g.numArcs / 2
}

// OutDegree returns the out-degree of u (degree, for undirected graphs).
func (g *Graph) OutDegree(u VertexID) int { return len(g.adj[u]) }

// Neighbors returns the out-neighbors of u. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(u VertexID) []VertexID { return g.adj[u] }

// Sorted reports whether every adjacency list is known to be ascending
// (set by Builder.Build and SortAdjacency, cleared by AddEdge).
func (g *Graph) Sorted() bool { return g.sorted }

// HasEdge reports whether the arc (u,v) is present. O(log deg(u)) when the
// adjacency is sorted (after Builder.Build or SortAdjacency), O(deg(u))
// otherwise.
func (g *Graph) HasEdge(u, v VertexID) bool {
	if g.sorted {
		_, ok := slices.BinarySearch(g.adj[u], v)
		return ok
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// AddEdge appends the arc (u,v); for undirected graphs it also appends
// (v,u). It does not deduplicate — use a Builder for deduplicated
// construction. Panics if an endpoint is out of range. Appending
// invalidates sortedness; call SortAdjacency again before relying on
// binary-search membership.
func (g *Graph) AddEdge(u, v VertexID) {
	g.checkVertex(u)
	g.checkVertex(v)
	g.adj[u] = append(g.adj[u], v)
	g.numArcs++
	if !g.directed {
		g.adj[v] = append(g.adj[v], u)
		g.numArcs++
	}
	g.sorted = false
}

// SortAdjacency sorts every adjacency list ascending. Useful for
// deterministic iteration and for binary-search membership tests
// (HasEdge switches to binary search afterwards).
func (g *Graph) SortAdjacency() {
	for _, nbrs := range g.adj {
		slices.Sort(nbrs)
	}
	g.sorted = true
}

// Edges calls fn for every stored arc (u,v). For undirected graphs each
// edge is visited twice, once in each direction; use u < v inside fn to
// visit undirected edges once.
func (g *Graph) Edges(fn func(u, v VertexID)) {
	for u, nbrs := range g.adj {
		for _, v := range nbrs {
			fn(VertexID(u), v)
		}
	}
}

func (g *Graph) checkVertex(u VertexID) {
	if u < 0 || int(u) >= len(g.adj) {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, len(g.adj)))
	}
}

// Builder accumulates edges with deduplication and self-loop removal, then
// produces a Graph. It is the recommended construction path for data read
// from external sources.
type Builder struct {
	directed bool
	n        int
	edges    []Edge
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int, directed bool) *Builder {
	return &Builder{directed: directed, n: n}
}

// Add records the edge (u,v). Endpoints beyond the current vertex count
// grow the graph.
func (b *Builder) Add(u, v VertexID) {
	if int(u) >= b.n {
		b.n = int(u) + 1
	}
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
	b.edges = append(b.edges, Edge{u, v})
}

// Build deduplicates the accumulated edges and returns the Graph.
// For undirected graphs, (u,v) and (v,u) are considered duplicates.
//
// The result is CSR-backed: all adjacency entries live in one flat target
// array, each adj[u] aliasing its offset window, and every list is sorted
// ascending — so built graphs get cache-friendly edge scans and
// binary-search HasEdge for free.
func (b *Builder) Build() *Graph {
	g := New(b.n, b.directed)
	g.sorted = true
	if len(b.edges) == 0 {
		return g
	}
	norm := make([]Edge, 0, len(b.edges))
	for _, e := range b.edges {
		if e.From == e.To {
			continue
		}
		if !b.directed && e.From > e.To {
			e.From, e.To = e.To, e.From
		}
		norm = append(norm, e)
	}
	slices.SortFunc(norm, func(a, c Edge) int {
		if a.From != c.From {
			return int(a.From) - int(c.From)
		}
		return int(a.To) - int(c.To)
	})
	norm = slices.Compact(norm)

	// Degree census, then offsets, then a fill pass. Iterating the sorted
	// unique edge list keeps every window ascending: for directed graphs the
	// targets of u arrive in To order; for undirected graphs adj[v] first
	// receives the smaller endpoints (From ascending while v is the To side)
	// and then, once From reaches v, the larger ones in To order.
	// Offsets are int64: an undirected graph stores two arcs per edge, so
	// billion-edge inputs overflow 32-bit arithmetic.
	deg := make([]int64, b.n+1)
	for _, e := range norm {
		deg[e.From]++
		if !b.directed {
			deg[e.To]++
		}
	}
	off := make([]int64, b.n+1)
	var total int64
	for v := 0; v < b.n; v++ {
		off[v] = total
		total += deg[v]
	}
	off[b.n] = total
	csr := make([]VertexID, total)
	cur := deg[:b.n]
	copy(cur, off[:b.n])
	for _, e := range norm {
		csr[cur[e.From]] = e.To
		cur[e.From]++
		if !b.directed {
			csr[cur[e.To]] = e.From
			cur[e.To]++
		}
	}
	g.numArcs = total
	for v := 0; v < b.n; v++ {
		g.adj[v] = csr[off[v]:off[v+1]:off[v+1]]
	}
	return g
}
