// Package baselines implements the partitioners Spinner is compared against
// in the paper's evaluation (Table I and Fig. 3b):
//
//   - Hash: the de-facto standard hash partitioning that Spinner aims to
//     replace (§I, §V-F);
//   - LDG: the streaming linear deterministic greedy heuristic of Stanton
//     & Kliot (KDD 2012), vertex-balanced;
//   - Fennel: the streaming partitioner of Tsourakakis et al. (WSDM 2014)
//     with the γ = 1.5 objective;
//   - Multilevel: a from-scratch METIS-style multilevel partitioner
//     (heavy-edge matching, greedy growing, boundary FM refinement),
//     standing in for the sequential METIS binary;
//   - LPACoarsen: an analogue of Wang et al. (ICDE 2014): label-propagation
//     coarsening followed by multilevel partitioning of the contracted
//     graph.
//
// Every implementation is deterministic given its seed, balances on edges
// (weighted degree) except LDG which is vertex-balanced exactly as
// published — the paper calls out that this is why Stanton et al. shows
// higher ρ in Table I.
package baselines

import "repro/internal/graph"

// Hash is modulo-hash partitioning: label(v) = h(v) mod k. It is the
// baseline every system falls back to and the comparison target of
// Fig. 3(b), Fig. 9 and Table IV.
type Hash struct{}

// Partition returns a labeling of w into k parts.
func (Hash) Partition(w *graph.Weighted, k int) []int32 {
	labels := make([]int32, w.NumVertices())
	for v := range labels {
		labels[v] = int32(hash64(uint64(v)) % uint64(k))
	}
	return labels
}

// hash64 is a splitmix64-style finalizer, a good integer hash.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
