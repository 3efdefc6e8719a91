package graph

import "math/bits"

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
// The adjacency is symmetric: {u,v} with weight w appears as (v,w) in
// adj[u] and (u,w) in adj[v].
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

// NumEdges returns the number of undirected edges.
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

// Degree returns the number of distinct neighbors of u.
func (w *Weighted) Degree(u VertexID) int { return len(w.adj[u]) }

// Neighbors returns the weighted adjacency of u. The slice is owned by the
// graph and must not be modified.
func (w *Weighted) Neighbors(u VertexID) []WeightedArc { return w.adj[u] }

// AddEdge inserts the undirected edge {u,v} with the given weight. It does
// not deduplicate; construction paths are responsible for uniqueness.
func (w *Weighted) AddEdge(u, v VertexID, weight int32) {
	w.adj[u] = append(w.adj[u], WeightedArc{To: v, Weight: weight})
	w.adj[v] = append(w.adj[v], WeightedArc{To: u, Weight: weight})
	w.totalWeight += 2 * int64(weight)
	w.numEdges++
}

// RemoveEdge deletes one undirected edge {u,v} and reports whether it was
// present: the first arc u→v in u's row, and then the first arc v→u of the
// same weight in v's row. Matching the weight keeps the rows mirror images
// of each other — every (neighbour, weight) arc of u's row has its (u,
// weight) twin in the neighbour's — even when parallel arcs of differing
// weights sit in rows that earlier swap-deletes ordered differently.
func (w *Weighted) RemoveEdge(u, v VertexID) bool {
	weight, ok := w.removeArc(u, v, 0)
	if !ok {
		return false
	}
	if _, ok := w.removeArc(v, u, weight); !ok {
		// Symmetry is a structural invariant; a one-sided edge means the
		// graph was corrupted by the caller.
		panic("graph: asymmetric adjacency in RemoveEdge")
	}
	w.totalWeight -= 2 * int64(weight)
	w.numEdges--
	return true
}

// removeArc swap-deletes the first arc u→v of the given weight — of any
// weight when weight is 0, arc weights being positive — and returns the
// weight it removed.
func (w *Weighted) removeArc(u, v VertexID, weight int32) (int32, bool) {
	arcs := w.adj[u]
	for i, a := range arcs {
		if a.To == v && (weight == 0 || a.Weight == weight) {
			arcs[i] = arcs[len(arcs)-1]
			w.adj[u] = arcs[:len(arcs)-1]
			return a.Weight, true
		}
	}
	return 0, false
}

// InsertArc appends the single directed arc u→v to u's row without touching
// the symmetric row or the edge/weight totals. It exists for sharded
// writers (internal/serve): two shards owning u's and v's rows insert the
// two arcs of an undirected edge independently — appends to distinct rows
// never race — and the owner reconciles the totals via AdjustTotals. Any
// other use breaks the symmetry invariant the rest of the package relies
// on; prefer AddEdge.
func (w *Weighted) InsertArc(u, v VertexID, weight int32) {
	w.adj[u] = append(w.adj[u], WeightedArc{To: v, Weight: weight})
}

// AdjustTotals folds dEdges undirected edges of total weight dWeight into
// the graph's edge and weight totals — the bookkeeping counterpart of
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
// bidirectional friendships. Self-loops in the input are ignored.
//
// The edges are enumerated twice: once to count degrees, once to fill. All
// rows are capacity-clamped windows of one arena, so no row is grown while
// it fills, and a later AddEdge past a row's capacity copies that row out
// of the arena without touching its neighbours. A window is as large as
// append-doubling would have left the row — the next power of two at or
// above its degree — because the serving layer appends to these rows on
// its apply path: with exact windows every first append copied a row out,
// and the benchmark's serve-write visibility latency rose by a tenth.
func Convert(g *Graph) *Weighted {
	n := g.NumVertices()
	pairs := g.undirectedPairs
	if g.directed {
		pairs = g.directedPairs()
	}
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
	pairs(w.AddEdge)
	return w
}

// undirectedPairs calls emit once per stored edge of an undirected graph,
// from its smaller endpoint.
func (g *Graph) undirectedPairs(emit func(u, v VertexID, weight int32)) {
	g.Edges(func(u, v VertexID) {
		if u < v {
			emit(u, v, 2)
		}
	})
}

// directedPairs returns the enumeration of a directed graph's unordered
// adjacent pairs {u,v}, u < v, each once with its Eq. 3 weight, in
// ascending u. It builds the in-neighbour lists once; the enumeration may
// then run any number of times and always yields the same sequence.
func (g *Graph) directedPairs() func(emit func(u, v VertexID, weight int32)) {
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
