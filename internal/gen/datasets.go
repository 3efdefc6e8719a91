package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Dataset names the laptop-scale synthetic analogues of the paper's real
// graphs (Table II). Each analogue preserves the topology class that drives
// Spinner's behaviour on the original; absolute sizes are scaled down by
// ~10^3 so experiments run in seconds.
type Dataset string

const (
	// LiveJournalLike (paper: LJ, 4.8M/69M, directed social): directed BA
	// graph with moderate hubs.
	LiveJournalLike Dataset = "LJ"
	// TuentiLike (paper: TU, 12M/685M, undirected social): Watts–Strogatz
	// small-world with high clustering, symmetrized.
	TuentiLike Dataset = "TU"
	// GooglePlusLike (paper: G+, 29M/462M, directed social): BA with higher
	// attachment.
	GooglePlusLike Dataset = "G+"
	// TwitterLike (paper: TW, 40M/1.5B, directed, extreme hubs): BA with
	// heavy attachment; known for high-degree hubs (Kwak et al.).
	TwitterLike Dataset = "TW"
	// FriendsterLike (paper: FR, 66M/1.8B, undirected): WS with rewiring.
	FriendsterLike Dataset = "FR"
	// YahooLike (paper: Y!, 1.4B/6.6B, directed web): power-law
	// configuration-model web graph.
	YahooLike Dataset = "Y!"
)

// AllDatasets lists the analogues in the order used by the paper's figures.
var AllDatasets = []Dataset{LiveJournalLike, GooglePlusLike, TuentiLike, TwitterLike, FriendsterLike}

// Load builds the analogue at the given vertex scale (n vertices). The seed
// makes runs reproducible. Passing n <= 0 selects the default experiment
// scale of 20 000 vertices.
func Load(d Dataset, n int, seed uint64) *graph.Graph {
	if n <= 0 {
		n = 20000
	}
	switch d {
	case LiveJournalLike:
		return BarabasiAlbert(n, 7, seed) // mean deg ~14, mild hubs
	case GooglePlusLike:
		return BarabasiAlbert(n, 8, seed^0x67)
	case TuentiLike:
		return WattsStrogatz(n, 12, 0.15, seed^0x7477)
	case TwitterLike:
		// Preferential attachment plus a handful of celebrity super-hubs
		// followed by a large fraction of all users: the Twitter graph "is
		// known for the existence of high-degree hubs" (§V-A), which drive
		// both the unbalanced random partitionings of Fig. 4(a) and the
		// worker skew of Table IV. Plain BA under-produces that skew at
		// laptop scale, so the celebrities are planted explicitly.
		g := BarabasiAlbert(n, 12, seed^0x7477697474)
		src := rng.New(seed ^ 0xce1eb)
		b := graph.NewBuilder(n, true)
		g.Edges(func(u, v graph.VertexID) { b.Add(u, v) })
		celebrities := max(3, n/10000)
		for c := 0; c < celebrities; c++ {
			hub := graph.VertexID(src.Intn(n))
			for i := 0; i < n/5; i++ {
				follower := graph.VertexID(src.Intn(n))
				if follower != hub {
					b.Add(follower, hub)
				}
			}
		}
		return b.Build()
	case FriendsterLike:
		return WattsStrogatz(n, 14, 0.3, seed^0x6672)
	case YahooLike:
		return PowerLawConfig(n, 200, 1.6, seed^0x79)
	default:
		panic(fmt.Sprintf("gen: unknown dataset %q", d))
	}
}

// GrowthBatch creates a Mutation adding approximately frac·|E| new
// undirected edges to w, modelling organic social-graph growth for the
// Fig. 7 experiments ("we add a varying number of edges that correspond to
// actual new friendships"). New edges are triadic-closure biased: with
// probability 0.7 an edge closes a length-2 path (friend-of-friend),
// otherwise it is uniform random. An addition of a pair w already holds
// (or the batch already added) is kept: applied, it adds its weight to the
// edge, as a refreshed friendship would. Triadic closure makes such
// additions common: on WS(2000, 8, 0.3) at frac 0.02, 54 of 319 (17 %);
// on BA(2000, 10), 9 of 398.
func GrowthBatch(w *graph.Weighted, frac float64, seed uint64) *graph.Mutation {
	if frac < 0 {
		panic("gen: negative growth fraction")
	}
	src := rng.New(seed)
	n := w.NumVertices()
	target := int(frac * float64(w.NumEdges()))
	mut := &graph.Mutation{}
	for len(mut.NewEdges) < target {
		u := graph.VertexID(src.Intn(n))
		if w.Degree(u) == 0 {
			continue
		}
		var v graph.VertexID
		if src.Float64() < 0.7 {
			// Triadic closure: pick a neighbor's neighbor.
			nbrs := w.Neighbors(u)
			mid := nbrs[src.Intn(len(nbrs))].To
			nbrs2 := w.Neighbors(mid)
			if len(nbrs2) == 0 {
				continue
			}
			v = nbrs2[src.Intn(len(nbrs2))].To
		} else {
			v = graph.VertexID(src.Intn(n))
		}
		if v == u {
			continue
		}
		mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{U: u, V: v, Weight: 2})
	}
	return mut
}

// ChurnBatch creates a Mutation combining growth (addFrac·|E| new edges,
// triadic-closure biased like GrowthBatch) with decay (removeFrac·|E|
// existing edges deleted uniformly), modelling the paper's full dynamic
// setting where "vertices and edges [are] constantly added and removed"
// (§I). Removals are sampled without replacement from the current edges.
func ChurnBatch(w *graph.Weighted, addFrac, removeFrac float64, seed uint64) *graph.Mutation {
	if removeFrac < 0 || removeFrac > 1 {
		panic("gen: removeFrac outside [0,1]")
	}
	mut := GrowthBatch(w, addFrac, seed)
	target := int(removeFrac * float64(w.NumEdges()))
	if target == 0 {
		return mut
	}
	// Reservoir-sample existing edges to remove.
	src := rng.New(seed ^ 0xdead)
	type edge struct{ u, v graph.VertexID }
	reservoir := make([]edge, 0, target)
	seen := 0
	w.EdgesOnce(func(u, v graph.VertexID, _ int32) {
		seen++
		if len(reservoir) < target {
			reservoir = append(reservoir, edge{u, v})
		} else if j := src.Intn(seen); j < target {
			reservoir[j] = edge{u, v}
		}
	})
	for _, e := range reservoir {
		mut.RemovedEdges = append(mut.RemovedEdges, graph.Edge{From: e.u, To: e.v})
	}
	return mut
}
