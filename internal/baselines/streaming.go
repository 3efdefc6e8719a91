package baselines

import (
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// LDG is the Linear Deterministic Greedy streaming partitioner of Stanton
// & Kliot (KDD 2012): vertices arrive in a random order and each is placed
// on the partition maximizing
//
//	|N(v) ∩ P_i| · (1 − |P_i| / C)
//
// where |P_i| is the partition's vertex count and C = slack·n/k its vertex
// capacity. LDG balances vertex counts, not edges — which is why Table I
// reports it with higher edge-ρ than edge-balanced approaches.
type LDG struct {
	// Seed orders the stream.
	Seed uint64
	// Slack is the capacity multiplier (default 1.0, the published
	// setting: capacity n/k).
	Slack float64
}

// Partition returns a labeling of w into k parts.
func (l LDG) Partition(w *graph.Weighted, k int) []int32 {
	n := w.NumVertices()
	slack := l.Slack
	if slack <= 0 {
		slack = 1.0
	}
	capacity := slack * float64(n) / float64(k)
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	sizes := make([]float64, k)
	counts := make([]float64, k) // |N(v) ∩ P_i| scratch
	src := rng.New(l.Seed)
	order := src.Perm(n)
	for _, vi := range order {
		v := graph.VertexID(vi)
		for i := range counts {
			counts[i] = 0
		}
		for _, a := range w.Neighbors(v) {
			if lab := labels[a.To]; lab >= 0 {
				counts[lab] += float64(a.Weight)
			}
		}
		best, bestScore := int32(0), math.Inf(-1)
		for i := 0; i < k; i++ {
			penalty := 1 - sizes[i]/capacity
			if penalty < 0 {
				penalty = 0
			}
			s := counts[i] * penalty
			// Break score ties toward the emptier partition, as published.
			if s > bestScore || (s == bestScore && sizes[i] < sizes[best]) {
				best, bestScore = int32(i), s
			}
		}
		labels[v] = best
		sizes[best]++
	}
	return labels
}

// Fennel is the streaming partitioner of Tsourakakis et al. (WSDM 2014).
// Each arriving vertex is placed on the partition maximizing
//
//	|N(v) ∩ P_i| − α·γ·|P_i|^(γ−1)
//
// with γ = 1.5 and α = √k · m / n^1.5, subject to the hard vertex bound
// ν·n/k (ν = 1.1), the configuration the paper's Table I row uses.
type Fennel struct {
	// Seed orders the stream.
	Seed uint64
	// Gamma is the objective exponent (default 1.5).
	Gamma float64
	// Nu is the hard balance bound multiplier (default 1.1).
	Nu float64
}

// Partition returns a labeling of w into k parts.
func (f Fennel) Partition(w *graph.Weighted, k int) []int32 {
	n := w.NumVertices()
	gamma := f.Gamma
	if gamma == 0 {
		gamma = 1.5
	}
	nu := f.Nu
	if nu == 0 {
		nu = 1.1
	}
	m := float64(w.NumEdges())
	alpha := math.Sqrt(float64(k)) * m / math.Pow(float64(n), 1.5)
	bound := nu * float64(n) / float64(k)

	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	sizes := make([]float64, k)
	counts := make([]float64, k)
	src := rng.New(f.Seed)
	order := src.Perm(n)
	for _, vi := range order {
		v := graph.VertexID(vi)
		for i := range counts {
			counts[i] = 0
		}
		for _, a := range w.Neighbors(v) {
			if lab := labels[a.To]; lab >= 0 {
				counts[lab] += float64(a.Weight)
			}
		}
		best, bestScore := int32(-1), math.Inf(-1)
		for i := 0; i < k; i++ {
			if sizes[i]+1 > bound {
				continue
			}
			s := counts[i] - alpha*gamma*math.Pow(sizes[i], gamma-1)
			if s > bestScore {
				best, bestScore = int32(i), s
			}
		}
		if best < 0 {
			// All partitions at the bound (can happen for the last few
			// vertices); fall back to the smallest.
			best = 0
			for i := 1; i < k; i++ {
				if sizes[i] < sizes[best] {
					best = int32(i)
				}
			}
		}
		labels[v] = best
		sizes[best]++
	}
	return labels
}
