package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// SeedNewVertices assigns labels to vertices init[firstNew:] by repeatedly
// placing each new vertex on the currently least-loaded partition (§III-D:
// "we initially assign them to the least loaded partition, to ensure we do
// not violate the balance constraint"). Loads are measured in weighted
// degree, consistent with b(l), and updated greedily as vertices are
// placed. It is the composition of an O(E) scan of b(l) (Eq. 6) over the
// existing vertices and PlaceNewVertices; Adapt, whose run reads every edge
// anyway, calls it. The serving layer (internal/serve) keeps b(l) as
// counters, as the paper's implementation keeps them as aggregators, and
// calls PlaceNewVertices alone.
func SeedNewVertices(w *graph.Weighted, init []int32, firstNew, k int) {
	if firstNew >= len(init) {
		return
	}
	loads := make([]int64, k)
	for v, l := range init[:firstNew] {
		loads[l] += w.WeightedDegree(graph.VertexID(v))
	}
	PlaceNewVertices(w, init, firstNew, loads)
}

// PlaceNewVertices labels init[firstNew:] greedily from loads, the b(l) of
// the vertices below firstNew in w (a new vertex's edges to them included).
// Loads are sums of int32 weights, exact as integers and as float64, so the
// placement depends on their values only — not on whether a scan or a
// maintained counter produced them. Each vertex goes to the least loaded
// label, the lowest label among equal loads. O((len(init)−firstNew)·k) plus
// the new vertices' rows.
func PlaceNewVertices(w *graph.Weighted, init []int32, firstNew int, loads []int64) {
	load := make([]float64, len(loads))
	for l, b := range loads {
		load[l] = float64(b)
	}
	for v := firstNew; v < len(init); v++ {
		best := 0
		for l, b := range load {
			if b < load[best] {
				best = l
			}
		}
		init[v] = int32(best)
		load[best] += float64(w.WeightedDegree(graph.VertexID(v))) + 1 // +1 spreads degree-0 newcomers
	}
}

// ElasticRelabel implements §III-E. Growing from oldK to newK partitions:
// every vertex independently moves, with probability p = n/(k+n) (Eq. 11,
// n = newK−oldK new partitions, k = oldK), to a uniformly chosen new
// partition. Shrinking: vertices on removed partitions (label >= newK)
// move to a uniformly chosen surviving partition. Equal counts return a
// copy unchanged. Resize composes this with an LPA repair run; the serving
// layer calls it directly so lookups see valid [0,newK) labels immediately
// while the repair converges in the background, and journals the result.
// The draws come from one sequential stream, not rng.At as the rest of
// the package's do; nothing recomputes a relabel from the seed any more,
// and the stream is kept only so the golden labels do not move.
func ElasticRelabel(prev []int32, oldK, newK int, seed uint64) ([]int32, error) {
	if newK < 1 {
		return nil, fmt.Errorf("core: newK=%d", newK)
	}
	out := make([]int32, len(prev))
	copy(out, prev)
	r := rng.New(seed*0x9e3779b97f4a7c15 + 0xe1a5)
	switch {
	case newK > oldK:
		n := newK - oldK
		p := float64(n) / float64(oldK+n)
		for v := range out {
			if r.Bool(p) {
				out[v] = int32(oldK + r.Intn(n))
			}
		}
	case newK < oldK:
		for v := range out {
			if out[v] >= int32(newK) {
				out[v] = int32(r.Intn(newK))
			}
		}
	}
	return out, nil
}
