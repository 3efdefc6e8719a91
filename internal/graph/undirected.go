package graph

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
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
	added, isNew := w.insertArc(u, v, weight)
	if isNew {
		w.adj[v] = append(w.adj[v], WeightedArc{To: u, Weight: weight})
		w.numEdges++
	} else {
		w.insertArc(v, u, added)
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

// insertArc adds weight to u's arc to v, appending the arc if u's row has
// none, without touching v's row or the edge/weight totals — AddEdge's
// half of an edge. It returns the weight actually added (less than weight
// where the sum saturates at math.MaxInt32) and whether the arc is new.
func (w *Weighted) insertArc(u, v VertexID, weight int32) (added int32, isNew bool) {
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
// bidirectional friendships. One rule serves both inputs: an undirected
// graph stores each edge as two arcs, which is what a directed pair of
// weight 2 is. Self-loops in the input are ignored, and an edge the input
// stores more than once converts to one.
//
// The order within a row is part of the output: EncodeBinary writes it, the
// serving layer's checkpoints store it, and Mutation.Apply appends after
// it. Row u holds its neighbours below u in ascending order, then its
// neighbours above u in the order u's lists first name them — its
// out-list first, then its in-list, whose sources are ascending. That is
// the order that appending each adjacent pair to both of its rows, in
// ascending lower endpoint, would leave.
//
// Each row is built in place, from its own lists only. The in-neighbour
// lists are built first; then each row's neighbourhood, the union of its
// out- and in-list, is counted, and once the windows are laid out it is
// written into its own. Each pass splits the vertices into ranges of about
// equal arcs, one goroutine each — GOMAXPROCS of them, but at most
// convertWorkers — and since no row depends on how they are split, the
// output does not depend on GOMAXPROCS.
//
// All rows are capacity-clamped windows of one arena, so a later AddEdge
// past a row's capacity copies that row out of the arena without touching
// its neighbours. A window is as large as append-doubling would have left
// the row — the next power of two at or above its degree — because the
// serving layer appends to these rows on its apply path: with exact windows
// every first append copied a row out, and the benchmark's serve-write
// visibility latency rose by a tenth.
func Convert(g *Graph) *Weighted {
	n := g.NumVertices()
	parts := min(runtime.GOMAXPROCS(0), convertWorkers)
	in, inOff := g.inNeighbours(parts)
	rows := split(n, parts, func(u int) int { return len(g.adj[u]) + inOff[u+1] - inOff[u] })
	scratch := make([]rowScratch, len(rows)-1)
	// start[u+1] holds row u's degree, then its window's capacity, then the
	// running sum: row u's window is arena[start[u]:start[u+1]].
	start := make([]int, n+1)
	each(rows, func(t, lo, hi int) {
		r := &scratch[t]
		r.mark = make([]byte, n)
		for u := lo; u < hi; u++ {
			start[u+1] = r.degree(VertexID(u), g.adj[u], in[inOff[u]:inOff[u+1]])
		}
	})
	var arcs int64
	for u := 0; u < n; u++ {
		d := start[u+1]
		arcs += int64(d)
		if d > 0 {
			d = 1 << bits.Len(uint(d-1))
		}
		start[u+1] = start[u] + d
	}
	w := NewWeighted(n)
	arena := make([]WeightedArc, start[n])
	each(rows, func(t, lo, hi int) {
		r := &scratch[t]
		for u := lo; u < hi; u++ {
			w.adj[u] = r.fill(arena[start[u]:start[u]:start[u+1]], VertexID(u), g.adj[u], in[inOff[u]:inOff[u+1]])
		}
	})
	for _, r := range scratch {
		w.totalWeight += r.weight
	}
	w.numEdges = arcs / 2
	return w
}

// convertWorkers caps the goroutines of a Convert pass. Each holds scratch
// of up to 5 B per vertex of the graph (a 4-byte count while the in-lists
// are built, a 1-byte mark while the rows are), so the cap bounds
// Convert's transient scratch at 40 B per vertex on any number of cores.
const convertWorkers = 8

// rowScratch is what one Convert goroutine needs to build a row.
type rowScratch struct {
	// mark is zero between rows. While fill builds one, bit 0 marks an
	// out-arc to a vertex, bit 1 an in-arc from it, and bit 2 its arc
	// written.
	mark   []byte
	below  []VertexID // fill's scratch: the out-list's entries below the row's vertex
	weight int64      // Σ weight of the arcs fill wrote
}

// degree returns the number of u's distinct neighbours, self-loops
// skipped, given its out- and in-list.
func (r *rowScratch) degree(u VertexID, out, in []VertexID) int {
	mark, d := r.mark, 0
	for _, v := range out {
		if v != u && mark[v] == 0 {
			mark[v] = 1
			d++
		}
	}
	for _, v := range in {
		if mark[v] == 0 {
			mark[v] = 1
			d++
		}
	}
	unmark(mark, out)
	unmark(mark, in)
	return d
}

// fill appends u's row, in Convert's order, to row, which must have room.
// in is u's in-list, ascending.
func (r *rowScratch) fill(row []WeightedArc, u VertexID, out, in []VertexID) []WeightedArc {
	mark := r.mark
	for _, v := range out {
		if v != u {
			mark[v] |= 1
		}
	}
	for _, v := range in {
		mark[v] |= 2
	}
	weight := int64(0)
	add := func(v VertexID) {
		w := int32(1 + (mark[v]&3)/3) // Eq. 3: 2 if both arcs exist
		row = append(row, WeightedArc{To: v, Weight: w})
		weight += int64(w)
		mark[v] |= 4
	}
	// Below u, ascending: the out-list's entries there, sorted, merged with
	// the in-list's, which are its prefix.
	below := r.below[:0]
	for _, v := range out {
		if v < u {
			below = append(below, v)
		}
	}
	slices.Sort(below)
	r.below = below
	k, _ := slices.BinarySearch(in, u)
	inBelow := in[:k]
	for len(below) > 0 || len(inBelow) > 0 {
		var v VertexID
		if len(inBelow) == 0 || len(below) > 0 && below[0] < inBelow[0] {
			v, below = below[0], below[1:]
		} else {
			v, inBelow = inBelow[0], inBelow[1:]
		}
		if mark[v] < 4 {
			add(v)
		}
	}
	// Above u, in the order the out-list and then the in-list first name
	// each neighbour.
	for _, v := range out {
		if v > u && mark[v] < 4 {
			add(v)
		}
	}
	for _, v := range in[k:] {
		if mark[v] < 4 {
			add(v)
		}
	}
	unmark(mark, out)
	unmark(mark, in)
	r.weight += weight
	return row
}

func unmark(mark []byte, vs []VertexID) {
	for _, v := range vs {
		mark[v] = 0
	}
}

// inNeighbours returns g's in-neighbour lists in CSR form, self-loops
// skipped: v's list is in[off[v]:off[v+1]], its sources ascending, one
// entry per arc. Each of up to parts goroutines counts, per target, the
// arcs of one range of sources, so the ranges' shares of a list can be
// placed in source order and filled independently.
func (g *Graph) inNeighbours(parts int) (in []VertexID, off []int) {
	n := len(g.adj)
	srcs := split(n, parts, func(u int) int { return len(g.adj[u]) })
	count := make([][]int32, len(srcs)-1)
	each(srcs, func(t, lo, hi int) {
		c := make([]int32, n)
		for u := lo; u < hi; u++ {
			for _, v := range g.adj[u] {
				if int(v) != u {
					c[v]++
				}
			}
		}
		count[t] = c
	})
	// count[t][v] becomes the place in v's list of range t's first arc to v.
	off = make([]int, n+1)
	for v := 0; v < n; v++ {
		var at int32
		for _, c := range count {
			c[v], at = at, at+c[v]
		}
		off[v+1] = off[v] + int(at)
	}
	in = make([]VertexID, off[n])
	each(srcs, func(t, lo, hi int) {
		c := count[t]
		for u := lo; u < hi; u++ {
			for _, v := range g.adj[u] {
				if int(v) != u {
					in[off[v]+int(c[v])] = VertexID(u)
					c[v]++
				}
			}
		}
	})
	return in, off
}

// split cuts [0, n) into at most parts ranges of about equal work, where
// item i costs work(i) plus one, and returns them as the bounds
// lo = bounds[t], hi = bounds[t+1] that each takes.
func split(n, parts int, work func(i int) int) []int {
	total := 0
	for i := 0; i < n; i++ {
		total += work(i) + 1
	}
	bounds, done := []int{0}, 0
	for i := 0; i < n; i++ {
		done += work(i) + 1
		if done*parts >= total*len(bounds) || i == n-1 {
			bounds = append(bounds, i+1)
		}
	}
	return bounds
}

// each runs fn(t, bounds[t], bounds[t+1]) for every range of bounds, one
// goroutine each, and waits for them.
func each(bounds []int, fn func(t, lo, hi int)) {
	var wg sync.WaitGroup
	for t := 0; t+1 < len(bounds); t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(t, bounds[t], bounds[t+1])
		}()
	}
	wg.Wait()
}
