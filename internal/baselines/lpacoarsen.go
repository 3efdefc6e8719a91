package baselines

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/rng"
)

// LPACoarsen is an analogue of Wang et al., "How to Partition a
// Billion-Node Graph" (ICDE 2014): plain label propagation groups vertices
// into size-capped communities, the graph is contracted by community, the
// contracted graph is partitioned with the multilevel partitioner, and the
// result is projected back to the original vertices.
//
// As the paper observes (§VI), the coarsening loses locality on skewed
// graphs and the method balances vertex counts rather than edges — both
// effects visible in Table I's Wang et al. row (lower φ at k ≥ 8, high ρ).
// We reproduce the vertex-count balancing deliberately: community sizes are
// capped in vertices, and the contracted partitioning balances community
// vertex counts.
type LPACoarsen struct {
	// Seed drives LPA ordering and the downstream multilevel partitioner.
	Seed uint64
	// Rounds is the number of LPA sweeps (default 5).
	Rounds int
	// MaxCommunityFrac caps each community at this fraction of n
	// (default 0.01, i.e. communities of at most 1% of the vertices, the
	// role of the authors' size threshold parameter).
	MaxCommunityFrac float64
}

// Partition returns a labeling of w into k parts.
func (p LPACoarsen) Partition(w *graph.Weighted, k int) []int32 {
	n := w.NumVertices()
	if k <= 1 || n == 0 {
		return make([]int32, n)
	}
	rounds := p.Rounds
	if rounds <= 0 {
		rounds = 5
	}
	frac := p.MaxCommunityFrac
	if frac <= 0 {
		frac = 0.01
	}
	maxSize := int(frac * float64(n))
	if maxSize < 1 {
		maxSize = 1
	}

	src := rng.New(p.Seed)
	comm := make([]int32, n) // community label, initially singleton
	size := make([]int, n)
	for v := range comm {
		comm[v] = int32(v)
		size[v] = 1
	}
	counts := make([]float64, 0, 32)
	countIdx := map[int32]int{}
	order := src.Perm(n)
	for r := 0; r < rounds; r++ {
		moved := 0
		for _, vi := range order {
			v := graph.VertexID(vi)
			counts = counts[:0]
			clear(countIdx)
			var labels []int32
			for _, a := range w.Neighbors(v) {
				c := comm[a.To]
				i, ok := countIdx[c]
				if !ok {
					i = len(counts)
					countIdx[c] = i
					counts = append(counts, 0)
					labels = append(labels, c)
				}
				counts[i] += float64(a.Weight)
			}
			cur := comm[v]
			best, bestW := cur, -1.0
			for i, c := range labels {
				if c != cur && size[c] >= maxSize {
					continue // community full
				}
				if counts[i] > bestW || (counts[i] == bestW && c == cur) {
					best, bestW = c, counts[i]
				}
			}
			if best != cur {
				size[cur]--
				size[best]++
				comm[v] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}

	// Renumber communities densely.
	remap := make(map[int32]int32, 256)
	for v := 0; v < n; v++ {
		if _, ok := remap[comm[v]]; !ok {
			remap[comm[v]] = int32(len(remap))
		}
	}
	nc := len(remap)
	cid := make([]int32, n)
	for v := 0; v < n; v++ {
		cid[v] = remap[comm[v]]
	}

	// Contract: community graph weighted by inter-community edge weight;
	// "vertex weight" for the downstream balance is the community's vertex
	// count (Wang et al. balances vertices, not edges).
	contracted := graph.NewWeighted(nc)
	type pair struct{ a, b int32 }
	acc := map[pair]int64{}
	w.EdgesOnce(func(u, v graph.VertexID, weight int32) {
		cu, cv := cid[u], cid[v]
		if cu == cv {
			return
		}
		if cu > cv {
			cu, cv = cv, cu
		}
		acc[pair{cu, cv}] += int64(weight)
	})
	// Insert in sorted order: map iteration order is random and adjacency
	// order feeds the downstream matching, so sorting keeps the whole
	// pipeline deterministic.
	pairs := make([]pair, 0, len(acc))
	for pr := range acc {
		pairs = append(pairs, pr)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	for _, pr := range pairs {
		cw := acc[pr]
		if cw > (1 << 30) {
			cw = 1 << 30
		}
		contracted.AddEdge(graph.VertexID(pr.a), graph.VertexID(pr.b), int32(cw))
	}

	// Partition the contracted graph with the multilevel partitioner, then
	// rebalance on community vertex counts.
	ml := Multilevel{Seed: p.Seed ^ 0x77616e67}
	clabels := ml.Partition(contracted, k)
	rebalanceVertexCounts(cid, clabels, size0(cid, nc), k)

	out := make([]int32, n)
	for v := 0; v < n; v++ {
		out[v] = clabels[cid[v]]
	}
	return out
}

// size0 returns the vertex count per community.
func size0(cid []int32, nc int) []int {
	s := make([]int, nc)
	for _, c := range cid {
		s[c]++
	}
	return s
}

// rebalanceVertexCounts greedily moves the smallest communities off
// overloaded partitions (by vertex count) until every partition is within
// 10% of the ideal, mimicking the vertex balancing of Wang et al.
func rebalanceVertexCounts(cid []int32, clabels []int32, csize []int, k int) {
	n := 0
	for _, s := range csize {
		n += s
	}
	target := float64(n) / float64(k)
	limit := 1.10 * target
	loads := make([]float64, k)
	for c, l := range clabels {
		loads[l] += float64(csize[c])
	}
	for iter := 0; iter < 4*len(clabels); iter++ {
		// Find the most overloaded partition.
		worst := 0
		for l := 1; l < k; l++ {
			if loads[l] > loads[worst] {
				worst = l
			}
		}
		if loads[worst] <= limit {
			return
		}
		// Move its smallest community to the lightest partition.
		lightest := 0
		for l := 1; l < k; l++ {
			if loads[l] < loads[lightest] {
				lightest = l
			}
		}
		bestC, bestSize := -1, 1<<62
		for c, l := range clabels {
			if int(l) == worst && csize[c] > 0 && csize[c] < bestSize {
				bestC, bestSize = c, csize[c]
			}
		}
		if bestC < 0 {
			return
		}
		clabels[bestC] = int32(lightest)
		loads[worst] -= float64(bestSize)
		loads[lightest] += float64(bestSize)
	}
}
