package cluster

import "repro/internal/graph"

// MigrationVolume measures the physical cost of moving from labeling
// `before` to labeling `after` on w: the number of vertices whose partition
// changed and the weighted degree they drag with them. The weighted-degree
// term is the paper's network-load proxy — a migrating vertex re-homes one
// message channel per unit of edge weight, so savings in this quantity are
// exactly what Fig. 7's incremental experiments report against scratch
// repartitioning. Vertices present only in `after` (appended by mutation
// batches) are placements, not migrations, and are not counted.
func MigrationVolume(w *graph.Weighted, before, after []int32) (vertices, weight int64) {
	n := len(before)
	if len(after) < n {
		n = len(after)
	}
	for v := 0; v < n; v++ {
		if before[v] != after[v] {
			vertices++
			weight += w.WeightedDegree(graph.VertexID(v))
		}
	}
	return vertices, weight
}
