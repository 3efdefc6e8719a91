package baselines

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// Multilevel is a from-scratch METIS-style multilevel k-way partitioner
// (Karypis & Kumar): the graph is coarsened by heavy-edge matching, the
// coarsest graph is partitioned by greedy region growing, and the
// partitioning is projected back level by level with boundary
// Fiduccia–Mattheyses refinement at each level.
//
// It stands in for the sequential METIS binary in Table I: centralized,
// needs the whole graph in memory, and produces the best locality at
// near-perfect balance — the golden-standard row Spinner is compared
// against. Balance is on edges (vertex weight = weighted degree), matching
// the paper's ρ metric.
type Multilevel struct {
	// Seed drives matching and seed selection.
	Seed uint64
	// Imbalance is the allowed load factor over the ideal (default 1.03,
	// METIS's default ufactor ≈ 1.03 as reported in Table I's ρ column).
	Imbalance float64
	// CoarsenTo stops coarsening when the graph has at most this many
	// vertices (default 30·k).
	CoarsenTo int
	// Passes is the number of refinement passes per level (default 6).
	Passes int
}

// mlArc is a weighted arc in a coarse graph.
type mlArc struct {
	to int32
	w  float64
}

// mlGraph is one level of the multilevel hierarchy.
type mlGraph struct {
	vwgt []float64 // vertex weight: total original weighted degree merged in
	adj  [][]mlArc
}

func (g *mlGraph) n() int { return len(g.vwgt) }

func (g *mlGraph) totalVwgt() float64 {
	t := 0.0
	for _, w := range g.vwgt {
		t += w
	}
	return t
}

// Partition returns a labeling of w into k parts.
func (m Multilevel) Partition(w *graph.Weighted, k int) []int32 {
	n := w.NumVertices()
	if k <= 1 || n == 0 {
		return make([]int32, n)
	}
	imb := m.Imbalance
	if imb <= 1 {
		imb = 1.03
	}
	coarsenTo := m.CoarsenTo
	if coarsenTo <= 0 {
		coarsenTo = 30 * k
	}
	passes := m.Passes
	if passes <= 0 {
		passes = 6
	}
	src := rng.New(m.Seed)

	// Level 0 from the input graph.
	g0 := &mlGraph{vwgt: make([]float64, n), adj: make([][]mlArc, n)}
	for v := 0; v < n; v++ {
		g0.vwgt[v] = float64(w.WeightedDegree(graph.VertexID(v)))
		arcs := w.Neighbors(graph.VertexID(v))
		g0.adj[v] = make([]mlArc, len(arcs))
		for i, a := range arcs {
			g0.adj[v][i] = mlArc{to: int32(a.To), w: float64(a.Weight)}
		}
	}

	// Coarsen.
	levels := []*mlGraph{g0}
	maps := [][]int32{} // maps[i]: levels[i] vertex -> levels[i+1] vertex
	for levels[len(levels)-1].n() > coarsenTo {
		cur := levels[len(levels)-1]
		cmap, coarse := coarsen(cur, src)
		if coarse.n() >= cur.n() { // no progress; stop
			break
		}
		levels = append(levels, coarse)
		maps = append(maps, cmap)
	}

	// Initial partitioning on the coarsest graph.
	coarsest := levels[len(levels)-1]
	labels := growPartitions(coarsest, k, src)
	refine(coarsest, labels, k, imb, passes, src)

	// Uncoarsen with refinement at every level.
	for i := len(maps) - 1; i >= 0; i-- {
		fine := levels[i]
		fineLabels := make([]int32, fine.n())
		for v := range fineLabels {
			fineLabels[v] = labels[maps[i][v]]
		}
		labels = fineLabels
		refine(fine, labels, k, imb, passes, src)
	}
	return labels
}

// coarsen performs one round of heavy-edge matching and contracts matched
// pairs. Returns the fine→coarse map and the coarse graph.
func coarsen(g *mlGraph, src *rng.Source) ([]int32, *mlGraph) {
	n := g.n()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := src.Perm(n)
	for _, vi := range order {
		if match[vi] >= 0 {
			continue
		}
		best, bestW := int32(-1), -1.0
		for _, a := range g.adj[vi] {
			if match[a.to] < 0 && int(a.to) != vi && a.w > bestW {
				best, bestW = a.to, a.w
			}
		}
		if best >= 0 {
			match[vi] = best
			match[best] = int32(vi)
		} else {
			match[vi] = int32(vi) // matched with itself
		}
	}
	// Assign coarse IDs: pair gets one ID, owned by the smaller index.
	cmap := make([]int32, n)
	next := int32(0)
	for v := 0; v < n; v++ {
		u := int(match[v])
		if u >= v {
			cmap[v] = next
			if u != v {
				cmap[u] = next
			}
			next++
		}
	}
	coarse := &mlGraph{vwgt: make([]float64, next), adj: make([][]mlArc, next)}
	for v := 0; v < n; v++ {
		coarse.vwgt[cmap[v]] += g.vwgt[v]
	}
	// Merge adjacency using a stamped scratch to dedup arcs.
	idx := make([]int32, next)
	stamp := make([]int32, next)
	for i := range stamp {
		stamp[i] = -1
	}
	// Accumulate arcs per coarse vertex by iterating fine vertices grouped
	// by their coarse owner.
	group := make([][]int32, next)
	for v := 0; v < n; v++ {
		group[cmap[v]] = append(group[cmap[v]], int32(v))
	}
	for cv := int32(0); cv < next; cv++ {
		var arcs []mlArc
		for _, v := range group[cv] {
			for _, a := range g.adj[v] {
				cu := cmap[a.to]
				if cu == cv {
					continue // internal edge disappears
				}
				if stamp[cu] != cv {
					stamp[cu] = cv
					idx[cu] = int32(len(arcs))
					arcs = append(arcs, mlArc{to: cu, w: a.w})
				} else {
					arcs[idx[cu]].w += a.w
				}
			}
		}
		coarse.adj[cv] = arcs
	}
	return cmap, coarse
}

// growPartitions produces an initial k-way labeling by greedy region
// growing: repeatedly BFS from a random unassigned seed, absorbing
// vertices until the partition reaches its share of the weight not yet
// assigned. The share is recomputed for each partition, so partitions that
// overshoot (a heavy coarse vertex lands last) shrink the ones after them
// instead of leaving the last partitions empty.
func growPartitions(g *mlGraph, k int, src *rng.Source) []int32 {
	n := g.n()
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	left := g.totalVwgt()
	target := left / float64(k)
	queue := make([]int32, 0, n)
	part := int32(0)
	load := 0.0
	nextSeed := 0
	order := src.Perm(n)
	for assigned := 0; assigned < n; {
		if len(queue) == 0 {
			// New BFS seed: next unassigned vertex in the random order.
			for nextSeed < n && labels[order[nextSeed]] >= 0 {
				nextSeed++
			}
			if nextSeed >= n {
				break
			}
			queue = append(queue, int32(order[nextSeed]))
		}
		v := queue[0]
		queue = queue[1:]
		if labels[v] >= 0 {
			continue
		}
		labels[v] = part
		load += g.vwgt[v]
		assigned++
		for _, a := range g.adj[v] {
			if labels[a.to] < 0 {
				queue = append(queue, a.to)
			}
		}
		if load >= target && part < int32(k-1) {
			part++
			left -= load
			target = left / float64(k-int(part))
			load = 0
			queue = queue[:0]
		}
	}
	for v := range labels {
		if labels[v] < 0 {
			labels[v] = part
		}
	}
	return labels
}

// refine runs boundary FM-style passes: each pass scans all vertices and
// greedily moves a vertex to the adjacent partition with the highest gain,
// subject to the balance bound. Overloaded partitions may evict vertices
// even at zero or negative gain to restore balance.
func refine(g *mlGraph, labels []int32, k int, imb float64, passes int, src *rng.Source) {
	n := g.n()
	total := g.totalVwgt()
	maxLoad := imb * total / float64(k)
	loads := make([]float64, k)
	for v := 0; v < n; v++ {
		loads[labels[v]] += g.vwgt[v]
	}
	conn := make([]float64, k)
	touched := make([]int32, 0, 16)
	order := src.Perm(n)
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for _, vi := range order {
			v := int32(vi)
			cur := labels[v]
			// Connectivity to each adjacent partition.
			touched = touched[:0]
			for _, a := range g.adj[v] {
				l := labels[a.to]
				if conn[l] == 0 {
					touched = append(touched, l)
				}
				conn[l] += a.w
			}
			intW := conn[cur]
			vw := g.vwgt[v]
			best := cur
			bestGain := 0.0
			const eps = 1e-9
			for _, l := range touched {
				if l == cur || loads[l]+vw > maxLoad {
					continue
				}
				gain := conn[l] - intW
				if gain > bestGain+eps {
					best, bestGain = l, gain
					continue
				}
				// Zero-/equal-gain moves are taken when they even out loads.
				if gain > bestGain-eps && gain >= -eps && loads[cur]-vw > loads[l]+vw {
					best, bestGain = l, gain
				}
			}
			// Overloaded source with no gainful escape: evict to the
			// lightest adjacent partition regardless of gain.
			if best == cur && loads[cur] > maxLoad {
				for _, l := range touched {
					if l == cur {
						continue
					}
					if best == cur || loads[l] < loads[best] {
						best = l
					}
				}
			}
			if best != cur {
				loads[cur] -= vw
				loads[best] += vw
				labels[v] = best
				moved++
			}
			for _, l := range touched {
				conn[l] = 0
			}
		}
		if moved == 0 {
			break
		}
	}
}
