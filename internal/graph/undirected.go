package graph

import (
	"math"
	"math/bits"
)

// WeightedArc is one endpoint-ordered record of a weighted undirected edge.
type WeightedArc struct {
	To     VertexID
	Weight int32
}

// Weighted is the weighted undirected graph that Spinner actually
// partitions. It is produced from a directed graph by Convert (Eq. 3 of the
// paper): an undirected edge {u,v} gets weight 1 if exactly one of (u,v),
// (v,u) exists in the directed input, and weight 2 if both exist. The edge
// weight therefore counts the number of messages a Pregel system would send
// across {u,v} per superstep, which is exactly the quantity whose cut
// Spinner minimizes.
//
// The graph is simple, as Eq. 3 defines it: a row holds at most one arc per
// neighbour, and every path that writes rows keeps it so. Adding an edge
// that exists adds its weight to the one arc (AddEdge). The adjacency is
// symmetric: {u,v} with weight w appears as (v,w) in adj[u] and (u,w) in
// adj[v].
type Weighted struct {
	adj         [][]WeightedArc
	totalWeight int64 // sum of weights over all arcs = 2 * sum over edges
	numEdges    int64 // number of undirected edges
}

// NewWeighted returns an empty weighted undirected graph with n vertices.
func NewWeighted(n int) *Weighted {
	return &Weighted{adj: make([][]WeightedArc, n)}
}

// NumVertices returns the number of vertices.
func (w *Weighted) NumVertices() int { return len(w.adj) }

// NumEdges returns the number of undirected edges: of adjacent pairs, the
// graph being simple.
func (w *Weighted) NumEdges() int64 { return w.numEdges }

// TotalWeight returns the sum of edge weights counted once per edge.
// This equals the number of directed arcs in the original graph and is the
// |E| that partition capacities (Eq. 5) are defined over.
func (w *Weighted) TotalWeight() int64 { return w.totalWeight / 2 }

// WeightedDegree returns deg_w(u) = Σ_{v∈N(u)} w(u,v) — the per-vertex load
// contribution used in b(l) (Eq. 6).
func (w *Weighted) WeightedDegree(u VertexID) int64 {
	var d int64
	for _, a := range w.adj[u] {
		d += int64(a.Weight)
	}
	return d
}

// Degree returns the number of distinct neighbors of u: the length of its
// row, which holds one arc per neighbour.
func (w *Weighted) Degree(u VertexID) int { return len(w.adj[u]) }

// Neighbors returns the weighted adjacency of u. The slice is owned by the
// graph and must not be modified.
func (w *Weighted) Neighbors(u VertexID) []WeightedArc { return w.adj[u] }

// AddEdge adds the undirected edge {u,v} with the given positive weight. If
// the edge exists, its weight grows by weight instead, saturating at
// math.MaxInt32, so a row never holds two arcs to one neighbour. Adding
// rather than clamping to the paper's 2 keeps every weighted degree, every
// b(l) and every bar of the LPA's histograms (internal/core) at the sum the
// two arcs would have held, and with them every label.
func (w *Weighted) AddEdge(u, v VertexID, weight int32) {
	if len(w.adj[u]) > len(w.adj[v]) {
		u, v = v, u // scan the shorter row; the other is scanned only to merge
	}
	added, isNew := w.InsertArc(u, v, weight)
	if isNew {
		w.adj[v] = append(w.adj[v], WeightedArc{To: u, Weight: weight})
		w.numEdges++
	} else {
		w.InsertArc(v, u, added)
	}
	w.totalWeight += 2 * int64(added)
}

// RemoveEdge deletes the undirected edge {u,v}, whatever weight it has
// gathered, and reports whether it was present.
func (w *Weighted) RemoveEdge(u, v VertexID) bool {
	weight, ok := w.removeArc(u, v)
	if !ok {
		return false
	}
	if _, ok := w.removeArc(v, u); !ok {
		// Symmetry is a structural invariant; a one-sided edge means the
		// graph was corrupted by the caller.
		panic("graph: asymmetric adjacency in RemoveEdge")
	}
	w.totalWeight -= 2 * int64(weight)
	w.numEdges--
	return true
}

// removeArc swap-deletes u's arc to v and returns its weight.
func (w *Weighted) removeArc(u, v VertexID) (int32, bool) {
	arcs := w.adj[u]
	for i, a := range arcs {
		if a.To == v {
			arcs[i] = arcs[len(arcs)-1]
			w.adj[u] = arcs[:len(arcs)-1]
			return a.Weight, true
		}
	}
	return 0, false
}

// EdgeWeight returns the weight of the edge {u,v}, 0 if absent, scanning
// the shorter of the two rows. u and v must be vertices of w.
func (w *Weighted) EdgeWeight(u, v VertexID) int32 {
	if len(w.adj[u]) > len(w.adj[v]) {
		u, v = v, u
	}
	for _, a := range w.adj[u] {
		if a.To == v {
			return a.Weight
		}
	}
	return 0
}

// InsertArc adds weight to u's arc to v, appending the arc if u's row has
// none, without touching v's row or the edge/weight totals. It returns the
// weight actually added — less than weight where the sum saturates at
// math.MaxInt32 — and whether the arc is new. It exists for sharded writers
// (internal/serve): two shards owning u's and v's rows insert the two arcs
// of an undirected edge independently — writes to distinct rows never race,
// and rows that mirror each other merge alike — and the owner reconciles
// the totals via AdjustTotals. Any other use breaks the symmetry invariant
// the rest of the package relies on; prefer AddEdge.
func (w *Weighted) InsertArc(u, v VertexID, weight int32) (added int32, isNew bool) {
	row := w.adj[u]
	for i := range row {
		if row[i].To == v {
			added = min(weight, math.MaxInt32-row[i].Weight)
			row[i].Weight += added
			return added, false
		}
	}
	w.adj[u] = append(row, WeightedArc{To: v, Weight: weight})
	return weight, true
}

// AdjustTotals folds dEdges new undirected edges and dWeight added weight
// into the graph's edge and weight totals — the bookkeeping counterpart of
// InsertArc, applied once per edge (not per arc) by the coordinating
// owner after concurrent shard writers have quiesced.
func (w *Weighted) AdjustTotals(dEdges, dWeight int64) {
	w.numEdges += dEdges
	w.totalWeight += 2 * dWeight
}

// AddVertices grows the graph by n isolated vertices and returns the ID of
// the first new vertex.
func (w *Weighted) AddVertices(n int) VertexID {
	first := VertexID(len(w.adj))
	w.adj = append(w.adj, make([][]WeightedArc, n)...)
	return first
}

// Clone returns a deep copy.
func (w *Weighted) Clone() *Weighted {
	c := &Weighted{totalWeight: w.totalWeight, numEdges: w.numEdges, adj: make([][]WeightedArc, len(w.adj))}
	for i, arcs := range w.adj {
		c.adj[i] = append([]WeightedArc(nil), arcs...)
	}
	return c
}

// EdgesOnce calls fn once per undirected edge with u < v.
func (w *Weighted) EdgesOnce(fn func(u, v VertexID, weight int32)) {
	for u, arcs := range w.adj {
		for _, a := range arcs {
			if VertexID(u) < a.To {
				fn(VertexID(u), a.To, a.Weight)
			}
		}
	}
}

// Convert turns a (possibly directed) graph into the weighted undirected
// form Spinner partitions, implementing Eq. 3:
//
//	w(u,v) = 1 if exactly one of (u,v),(v,u) ∈ D   (XOR)
//	w(u,v) = 2 if both (u,v),(v,u) ∈ D
//
// For an already-undirected input every edge simply gets weight 2: an
// undirected edge carries messages in both directions in a Pregel system,
// matching the paper's Tuenti/Friendster treatment where |E| counts
// bidirectional friendships. The one enumeration serves both inputs: an
// undirected graph stores each edge as two arcs, which is what a directed
// pair of weight 2 is. Self-loops in the input are ignored, and an edge the
// input stores more than once converts to one.
//
// The edges are enumerated twice: once to count degrees, once to fill. Each
// pair comes up once, so the fill appends without the merging scan of
// AddEdge, which would cost O(Σ deg²) on hubs. All rows are
// capacity-clamped windows of one arena, so no row is grown while it fills,
// and a later AddEdge past a row's capacity copies that row out of the
// arena without touching its neighbours. A window is as large as
// append-doubling would have left the row — the next power of two at or
// above its degree — because the serving layer appends to these rows on
// its apply path: with exact windows every first append copied a row out,
// and the benchmark's serve-write visibility latency rose by a tenth.
func Convert(g *Graph) *Weighted {
	n := g.NumVertices()
	pairs := g.adjacentPairs()
	deg := make([]int, n)
	pairs(func(u, v VertexID, _ int32) {
		deg[u]++
		deg[v]++
	})
	total := 0
	for u, d := range deg {
		if d > 0 {
			deg[u] = 1 << bits.Len(uint(d-1))
		}
		total += deg[u]
	}
	w := NewWeighted(n)
	arena := make([]WeightedArc, total)
	off := 0
	for u, c := range deg {
		w.adj[u] = arena[off : off : off+c]
		off += c
	}
	pairs(func(u, v VertexID, weight int32) {
		w.adj[u] = append(w.adj[u], WeightedArc{To: v, Weight: weight})
		w.adj[v] = append(w.adj[v], WeightedArc{To: u, Weight: weight})
		w.totalWeight += 2 * int64(weight)
		w.numEdges++
	})
	return w
}

// adjacentPairs returns the enumeration of g's unordered adjacent pairs
// {u,v}, u < v, each once with its Eq. 3 weight, in ascending u. It builds
// the in-neighbour lists once; the enumeration may then run any number of
// times and always yields the same sequence.
func (g *Graph) adjacentPairs() func(emit func(u, v VertexID, weight int32)) {
	n := len(g.adj)
	// In-neighbour lists in CSR form: in[inOff[v]:inOff[v+1]], ascending.
	inOff := make([]int, n+1)
	g.Edges(func(u, v VertexID) {
		if u != v {
			inOff[v+1]++
		}
	})
	for v := 0; v < n; v++ {
		inOff[v+1] += inOff[v]
	}
	in := make([]VertexID, inOff[n])
	cur := make([]int, n)
	copy(cur, inOff)
	g.Edges(func(u, v VertexID) {
		if u != v {
			in[cur[v]] = u
			cur[v]++
		}
	})

	// mark[v] holds, per scan of u's combined in/out neighborhood, a
	// bitmask: bit 0 = arc u->v present, bit 1 = arc v->u present. Every scan
	// leaves it zeroed.
	mark := make([]byte, n)
	touched := make([]VertexID, 0, 64)
	return func(emit func(u, v VertexID, weight int32)) {
		for ui := 0; ui < n; ui++ {
			u := VertexID(ui)
			touched = touched[:0]
			for _, v := range g.adj[u] {
				if v == u {
					continue
				}
				if mark[v] == 0 {
					touched = append(touched, v)
				}
				mark[v] |= 1
			}
			for _, v := range in[inOff[u]:inOff[u+1]] {
				if mark[v] == 0 {
					touched = append(touched, v)
				}
				mark[v] |= 2
			}
			for _, v := range touched {
				// Emit each unordered pair once, from the smaller endpoint.
				if u < v {
					if mark[v] == 3 {
						emit(u, v, 2)
					} else {
						emit(u, v, 1)
					}
				}
				mark[v] = 0
			}
		}
	}
}
