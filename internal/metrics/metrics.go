// Package metrics implements the evaluation metrics of §V of the Spinner
// paper:
//
//	φ (phi)  — ratio of local edges (Eq. 16, left): the weighted fraction
//	           of edges whose endpoints share a partition.
//	ρ (rho)  — maximum normalized load (Eq. 16, right): the load of the
//	           most loaded partition divided by the ideal load |E|/k.
//	score(G) — the aggregate optimization objective (Eq. 10).
//	partitioning difference — the fraction of vertices whose label differs
//	           between two partitionings (§V-D, "partitioning stability").
//
// All edge-based metrics operate on the weighted undirected graph produced
// by graph.Convert, so "load" counts messages exactly as the paper's Giraph
// implementation does.
package metrics

import (
	"fmt"

	"repro/internal/graph"
)

// Loads returns b(l) for every label l (Eq. 6): the sum over vertices with
// label l of their weighted degree. Σ_l b(l) = 2·TotalWeight.
func Loads(w *graph.Weighted, labels []int32, k int) []int64 {
	loads := make([]int64, k)
	for v := 0; v < w.NumVertices(); v++ {
		loads[labels[v]] += w.WeightedDegree(graph.VertexID(v))
	}
	return loads
}

// Phi returns the ratio of local edge weight: Σ_{local e} w(e) / Σ_e w(e).
// An edge is local when both endpoints carry the same label. Returns 1 for
// an edgeless graph (nothing is cut).
func Phi(w *graph.Weighted, labels []int32) float64 {
	var local, total int64
	w.EdgesOnce(func(u, v graph.VertexID, weight int32) {
		total += int64(weight)
		if labels[u] == labels[v] {
			local += int64(weight)
		}
	})
	if total == 0 {
		return 1
	}
	return float64(local) / float64(total)
}

// CutEdges returns the number of undirected edges (unweighted count) whose
// endpoints carry different labels.
func CutEdges(w *graph.Weighted, labels []int32) int64 {
	var cut int64
	w.EdgesOnce(func(u, v graph.VertexID, _ int32) {
		if labels[u] != labels[v] {
			cut++
		}
	})
	return cut
}

// CutWeights returns the integer cut counters the serving layer tracks
// incrementally: the total edge weight, the cross-partition (cut) edge
// weight, and the per-partition external weight (each cut edge contributes
// its weight to both endpoints' partitions). 1−Phi equals
// float64(cross)/float64(total); keeping the counters in integers makes
// incremental deltas bit-exactly reconcilable against this recompute.
func CutWeights(w *graph.Weighted, labels []int32, k int) (cross, total int64, perPart []int64) {
	cross, total, perPart, _ = CutWeightsRange(w, labels, k, 0, w.NumVertices())
	return cross, total, perPart
}

// CutWeightsRange is CutWeights restricted to the edges owned by the
// contiguous vertex range [lo, hi): an edge {u,v} with u < v is owned by
// the range containing u. Summing the results over a partition of the
// vertex space into disjoint ranges reproduces CutWeights exactly.
// load is the owned edges' share of b(l) (Eq. 6): every owned edge, cut or
// not, adds its weight at both endpoints' labels, so the ranges' loads sum
// to Loads on a graph without self-loops (which no mutation, Convert or
// decode admits).
func CutWeightsRange(w *graph.Weighted, labels []int32, k, lo, hi int) (cross, total int64, perPart, load []int64) {
	perPart, load = make([]int64, k), make([]int64, k)
	for u := lo; u < hi; u++ {
		lu := labels[u]
		for _, a := range w.Neighbors(graph.VertexID(u)) {
			if a.To <= graph.VertexID(u) {
				continue
			}
			total += int64(a.Weight)
			lv := labels[a.To]
			load[lu] += int64(a.Weight)
			load[lv] += int64(a.Weight)
			if lu != lv {
				cross += int64(a.Weight)
				perPart[lu] += int64(a.Weight)
				perPart[lv] += int64(a.Weight)
			}
		}
	}
	return cross, total, perPart, load
}

// Rho returns the maximum normalized load: max_l b(l) / (Σ_l b(l) / k).
// A perfectly balanced partitioning has ρ = 1. Returns 1 when the graph
// carries no load.
func Rho(w *graph.Weighted, labels []int32, k int) float64 {
	loads := Loads(w, labels, k)
	var sum, maxLoad int64
	for _, b := range loads {
		sum += b
		if b > maxLoad {
			maxLoad = b
		}
	}
	if sum == 0 {
		return 1
	}
	ideal := float64(sum) / float64(k)
	return float64(maxLoad) / ideal
}

// RhoWeighted generalizes Rho to heterogeneous capacities: the maximum over
// partitions of b(l) / (T·f_l), where f are the (already normalized)
// capacity fractions. With uniform fractions it equals Rho. Returns 1 when
// the graph carries no load.
func RhoWeighted(w *graph.Weighted, labels []int32, fractions []float64) float64 {
	k := len(fractions)
	loads := Loads(w, labels, k)
	var total int64
	for _, b := range loads {
		total += b
	}
	if total == 0 {
		return 1
	}
	maxUtil := 0.0
	for l, b := range loads {
		util := float64(b) / (float64(total) * fractions[l])
		if util > maxUtil {
			maxUtil = util
		}
	}
	return maxUtil
}

// Score returns score(G) (Eq. 10): the sum over vertices of the per-vertex
// normalized score score”(v, α(v)) (Eq. 8), evaluated against the current
// loads and the capacity C = c·|E|/k (Eq. 5). It is the objective Spinner
// hill-climbs; tests assert it is non-decreasing across iterations.
func Score(w *graph.Weighted, labels []int32, k int, c float64) float64 {
	loads := Loads(w, labels, k)
	capacity := c * float64(w.TotalWeight()) / float64(k)
	if capacity == 0 {
		return 0
	}
	total := 0.0
	for v := 0; v < w.NumVertices(); v++ {
		l := labels[v]
		var same, degW int64
		for _, a := range w.Neighbors(graph.VertexID(v)) {
			degW += int64(a.Weight)
			if labels[a.To] == l {
				same += int64(a.Weight)
			}
		}
		if degW == 0 {
			continue
		}
		locality := float64(same) / float64(degW)
		penalty := float64(loads[l]) / capacity
		total += locality - penalty
	}
	return total
}

// Difference returns the partitioning difference of §V-D: the fraction of
// vertices whose label differs between a and b. It panics if the slices
// have different lengths. Labels are compared up to an optimal one-to-one
// relabeling ONLY when exact is false; the paper's metric is the raw
// difference (exact=true) because vertices physically move when the label
// changes, so that is the default behaviour of Difference.
func Difference(a, b []int32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metrics: Difference length mismatch %d vs %d", len(a), len(b)))
	}
	if len(a) == 0 {
		return 0
	}
	moved := 0
	for i := range a {
		if a[i] != b[i] {
			moved++
		}
	}
	return float64(moved) / float64(len(a))
}

// ValidateLabels checks that every label is in [0, k). It returns an error
// naming the first offending vertex.
func ValidateLabels(labels []int32, k int) error {
	for v, l := range labels {
		if l < 0 || int(l) >= k {
			return fmt.Errorf("metrics: vertex %d has label %d outside [0,%d)", v, l, k)
		}
	}
	return nil
}
