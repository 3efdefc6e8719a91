package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro"
)

// Everything the programs under test receive is generated here from the
// run's seed: the same seed yields byte-identical inputs (fingerprint
// proves it in the tests), and the programs never see the seed itself
// except as the partitioner's documented Options.Seed / -seed.

// subSeed derives an independent stream for one purpose from the run seed.
func subSeed(seed uint64, purpose string) int64 {
	h := sha256.Sum256(fmt.Appendf(nil, "%d/%s", seed, purpose))
	return int64(binary.LittleEndian.Uint64(h[:8]) >> 1)
}

// barabasiAlbert generates a hub-skewed preferential-attachment graph:
// each new vertex attaches m edges to distinct earlier vertices chosen in
// proportion to their degree. It is the algorithm of repro.BarabasiAlbert,
// which cannot be used here: that generator ranges over a Go map while it
// draws, so the same seed yields a different graph on every call.
func barabasiAlbert(n, m int, seed uint64) *repro.Graph {
	r := rand.New(rand.NewSource(subSeed(seed, "ba")))
	g := repro.NewGraph(n, true)
	// One entry per edge endpoint: a uniform draw is degree-proportional.
	targets := make([]repro.VertexID, 0, 2*n*m)
	link := func(u, v repro.VertexID) {
		g.AddEdge(u, v)
		targets = append(targets, u, v)
	}
	for u := 0; u <= m; u++ {
		link(repro.VertexID(u), repro.VertexID((u+1)%(m+1)))
	}
	chosen := make([]repro.VertexID, 0, m)
	for u := m + 1; u < n; u++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			v := targets[r.Intn(len(targets))]
			if int(v) != u && !slices.Contains(chosen, v) {
				chosen = append(chosen, v)
			}
		}
		for _, v := range chosen {
			link(repro.VertexID(u), v)
		}
	}
	return g
}

// zipfIDs returns count vertex ids in [0,n) with Zipf(s=1.1) popularity:
// a few hot vertices, a long tail — the skew a partition-lookup cache or
// a per-vertex fast path would have to cope with.
func zipfIDs(seed uint64, n, count int) []int64 {
	r := rand.New(rand.NewSource(subSeed(seed, "zipf")))
	z := rand.NewZipf(r, 1.1, 1, uint64(n-1))
	// Scatter ranks over the id space so the hot set is not the low ids
	// of one shard.
	perm := r.Perm(n)
	ids := make([]int64, count)
	for i := range ids {
		ids[i] = int64(perm[z.Uint64()])
	}
	return ids
}

// uniformIDs returns count uniformly drawn vertex ids in [0,n) for the
// connection conn of the saturation phase.
func uniformIDs(seed uint64, conn, n, count int) []int64 {
	r := rand.New(rand.NewSource(subSeed(seed, fmt.Sprintf("uniform/%d", conn))))
	ids := make([]int64, count)
	for i := range ids {
		ids[i] = int64(r.Intn(n))
	}
	return ids
}

// addEdgeLines appends ops "+ u v" lines between distinct vertices of [0,n).
func addEdgeLines(b *strings.Builder, r *rand.Rand, n, ops int) {
	for i := 0; i < ops; i++ {
		u := r.Intn(n)
		v := r.Intn(n - 1)
		if v >= u {
			v++
		}
		fmt.Fprintf(b, "+ %d %d\n", u, v)
	}
}

const (
	opsPerBatch = 20 // add-edge ops in every mutation batch
	markerEvery = 4  // every 4th batch of the open loop is a marker
	markerEdges = 5  // edges from a marker's new vertex
)

// edgeBatches returns count mutation bodies of opsPerBatch add-edge ops
// among the n0 boot-time vertices (no new vertices, so they commute and
// any number of connections may post them).
func edgeBatches(seed uint64, purpose string, n0, count int) []string {
	r := rand.New(rand.NewSource(subSeed(seed, purpose)))
	out := make([]string, count)
	for i := range out {
		var b strings.Builder
		addEdgeLines(&b, r, n0, opsPerBatch)
		out[i] = b.String()
	}
	return out
}

// openLoopPlan is the serve-write phase-A schedule: body i is due at
// Due[i] after the phase starts. Marker batches append one vertex (the
// m-th marker creates vertex n0+m-1, so visibility can be read off
// Delta.N) plus markerEdges edges to it.
type openLoopPlan struct {
	Bodies  []string
	Due     []time.Duration
	Markers []int // indices into Bodies, in order
}

func planOpenLoop(seed uint64, n0 int, rate float64, length time.Duration) openLoopPlan {
	r := rand.New(rand.NewSource(subSeed(seed, "openloop")))
	step := time.Duration(float64(time.Second) / rate)
	var p openLoopPlan
	for i := 0; time.Duration(i)*step < length; i++ {
		var b strings.Builder
		addEdgeLines(&b, r, n0, opsPerBatch)
		if i%markerEvery == markerEvery-1 {
			newID := n0 + len(p.Markers)
			b.WriteString("v 1\n")
			for e := 0; e < markerEdges; e++ {
				fmt.Fprintf(&b, "+ %d %d\n", newID, r.Intn(n0))
			}
			p.Markers = append(p.Markers, i)
		}
		p.Bodies = append(p.Bodies, b.String())
		p.Due = append(p.Due, time.Duration(i)*step)
	}
	return p
}

// growth builds the adapt-elastic mutation for w (§III-D, Fig. 7): +2 %
// vertices each wired to deg existing vertices, +1 % fresh edges among
// existing vertices, and 0.5 % of the existing edges removed.
func growth(w *repro.Weighted, seed uint64) *repro.Mutation {
	r := rand.New(rand.NewSource(subSeed(seed, "growth")))
	n := w.NumVertices()
	edges := int(w.NumEdges())
	m := &repro.Mutation{NewVertices: n / 50}
	const deg = 8
	for v := 0; v < m.NewVertices; v++ {
		seen := map[int]bool{}
		for len(seen) < deg {
			u := r.Intn(n)
			if seen[u] {
				continue
			}
			seen[u] = true
			m.NewEdges = append(m.NewEdges, repro.WeightedEdgeRecord{U: repro.VertexID(n + v), V: repro.VertexID(u), Weight: 1})
		}
	}
	type pair struct{ u, v repro.VertexID }
	norm := func(u, v repro.VertexID) pair {
		if u > v {
			u, v = v, u
		}
		return pair{u, v}
	}
	adjacent := func(u, v repro.VertexID) bool {
		for _, a := range w.Neighbors(u) {
			if a.To == v {
				return true
			}
		}
		return false
	}
	added := map[pair]bool{}
	for len(added) < edges/100 {
		u, v := repro.VertexID(r.Intn(n)), repro.VertexID(r.Intn(n))
		if u == v || adjacent(u, v) || added[norm(u, v)] {
			continue
		}
		added[norm(u, v)] = true
		m.NewEdges = append(m.NewEdges, repro.WeightedEdgeRecord{U: u, V: v, Weight: 1})
	}
	removed := map[pair]bool{}
	for len(removed) < edges/200 {
		u := repro.VertexID(r.Intn(n))
		nb := w.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		v := nb[r.Intn(len(nb))].To
		if removed[norm(u, v)] {
			continue
		}
		removed[norm(u, v)] = true
		// graph.Edge is not re-exported by the root package; an untyped
		// struct literal of the same shape is assignable to it.
		m.RemovedEdges = append(m.RemovedEdges, struct{ From, To repro.VertexID }{u, v})
	}
	return m
}

// fingerprint hashes generated inputs so tests can compare them bytewise.
func fingerprint(parts ...any) [32]byte {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\x00", p)
	}
	return [32]byte(h.Sum(nil))
}
