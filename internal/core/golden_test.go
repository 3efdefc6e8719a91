package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// golden is one run's fingerprint as recorded at c8519d1. hash (FNV-64a over
// the little-endian labels) and iterations are the gate a performance change
// must pass untouched. broadcast is that commit's Result.Messages, from when
// the Initialization superstep still sent every starting label along every
// arc; the count a run reports now is in goldenMessages.
type golden struct {
	hash       uint64
	iterations int
	broadcast  int64
}

func hashLabels(labels []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, l := range labels {
		binary.LittleEndian.PutUint32(b[:], uint32(l))
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenLabels were recorded at c8519d1 (the commit before ComputeScores
// kept a neighbour-label histogram): hash and iterations of every entry
// must repeat exactly, since the histogram, the aggregator slab, the
// Convert arena and reading the starting labels are pure performance
// changes. AffectedOnly is absent on purpose — that option's labels changed
// with the fix pinned by TestAffectedOnlyRestricts.
var goldenLabels = map[string]golden{
	"ws/w1/partition":               {0xaec0c4525d7b93c2, 50, 95745},
	"ws/w1/weighted":                {0x2570178853dbf0e7, 36, 80681},
	"ws/w1/adapt":                   {0xdc15f5788e4b6fe2, 10, 40220},
	"ws/w1/resize-8-10":             {0x9caf3c8d28385909, 25, 56147},
	"ws/w1/resize-8-6":              {0xbcd63c9cb81ed005, 14, 47809},
	"ws/w4/partition":               {0xbdf3d397a1511e66, 42, 96700},
	"ws/w4/weighted":                {0xdef20b904cf86896, 40, 88268},
	"ws/w4/adapt":                   {0xe9127bfde6c8ede4, 11, 42895},
	"ws/w4/resize-8-10":             {0x6d334b0f66d9ce0f, 25, 59056},
	"ws/w4/resize-8-6":              {0xa6dbb000b6340be6, 18, 47062},
	"ba/w1/partition":               {0x9067be93e1156522, 66, 189867},
	"ba/w1/weighted":                {0x9067be93e1156522, 66, 169966},
	"ba/w1/adapt":                   {0x782652037f6b3bc3, 18, 75725},
	"ba/w1/resize-8-10":             {0xf9a19d1b98bb136e, 31, 102073},
	"ba/w1/resize-8-6":              {0x13909f8e33e8aad0, 32, 101411},
	"ba/w4/partition":               {0x7d2bf667d8c9fc24, 57, 173708},
	"ba/w4/weighted":                {0x7d2bf667d8c9fc24, 57, 153807},
	"ba/w4/adapt":                   {0x4dd117256508af65, 20, 80568},
	"ba/w4/resize-8-10":             {0x1454793b9aa0a1e, 34, 107326},
	"ba/w4/resize-8-6":              {0x37e2ea3a166e7dd1, 26, 92296},
	"ws/ignore-edge-weights":        {0x472e6ff700c19426, 38, 76180},
	"ws/random-tie-break":           {0xa96119c30b2dffb1, 46, 83745},
	"ws/disable-async-worker-state": {0x437addedca357c16, 37, 78707},
	"ws/capacity-fractions":         {0x6a6c12c5defad381, 52, 86217},
	"ba/ignore-edge-weights":        {0xcec426cb36d002b5, 63, 166341},
	"ba/random-tie-break":           {0x97ce743de8db0c10, 43, 126210},
	"ba/disable-async-worker-state": {0xa5d677a6104354d0, 46, 135161},
	"ba/capacity-fractions":         {0xad9467c00ccfa9f0, 49, 139769},
}

// goldenMessages is Result.Messages of the same runs since starting labels
// are read, not sent: label-change announcements only (and, for Partition,
// the conversion announcements). The count moves first when a tie or a
// migration differs. Re-recorded when the broadcast was deleted;
// TestGoldenLabels checks the derivation — every entry is golden.broadcast
// minus the arc count of the run's graph.
var goldenMessages = map[string]int64{
	"ws/w1/partition":               63797,
	"ws/w1/weighted":                48747,
	"ws/w1/adapt":                   7648,
	"ws/w1/resize-8-10":             24213,
	"ws/w1/resize-8-6":              15875,
	"ws/w4/partition":               64752,
	"ws/w4/weighted":                56334,
	"ws/w4/adapt":                   10323,
	"ws/w4/resize-8-10":             27122,
	"ws/w4/resize-8-6":              15128,
	"ba/w1/partition":               150065,
	"ba/w1/weighted":                130164,
	"ba/w1/adapt":                   35127,
	"ba/w1/resize-8-10":             62271,
	"ba/w1/resize-8-6":              61609,
	"ba/w4/partition":               133906,
	"ba/w4/weighted":                114005,
	"ba/w4/adapt":                   39970,
	"ba/w4/resize-8-10":             67524,
	"ba/w4/resize-8-6":              52494,
	"ws/ignore-edge-weights":        44246,
	"ws/random-tie-break":           51811,
	"ws/disable-async-worker-state": 46773,
	"ws/capacity-fractions":         54283,
	"ba/ignore-edge-weights":        126539,
	"ba/random-tie-break":           86408,
	"ba/disable-async-worker-state": 95359,
	"ba/capacity-fractions":         99967,
}

// convertedArcCount is Σ degree after Partition's conversion supersteps:
// every stored arc of g stays (parallel ones too, self-loops dropped), and
// NeighborDiscovery adds one reverse arc for every adjacent ordered pair
// that has none.
func convertedArcCount(g *graph.Graph) int64 {
	has := map[[2]graph.VertexID]bool{}
	var arcs int64
	g.Edges(func(u, v graph.VertexID) {
		if u != v {
			has[[2]graph.VertexID{u, v}] = true
			arcs++
		}
	})
	for uv := range has {
		if !has[[2]graph.VertexID{uv[1], uv[0]}] {
			arcs++
		}
	}
	return arcs
}

// TestGoldenLabels pins the labels of every entry point and every scoring
// option on a small-world graph and on a hub-skewed one (hub degree far
// above k, so hubs see every label), at 1 and 4 workers.
func TestGoldenLabels(t *testing.T) {
	const k = 8
	runs := 0
	record := func(name string, arcs int64, res *Result, err error) *Result {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs++
		want, messages := goldenLabels[name], goldenMessages[name]
		// The gate: labels and iteration count as recorded at c8519d1.
		if h := hashLabels(res.Labels); h != want.hash || res.Iterations != want.iterations {
			t.Errorf("%q: labels %#x after %d iterations, recorded %#x after %d", name, h, res.Iterations, want.hash, want.iterations)
		}
		if res.Messages != messages {
			t.Errorf("%q: %d messages, recorded %d", name, res.Messages, messages)
		}
		// The re-record is the old count less one starting label per arc.
		if want.broadcast-messages != arcs {
			t.Errorf("%q: recorded %d messages with the broadcast and %d without, but the graph has %d arcs", name, want.broadcast, messages, arcs)
		}
		return res
	}
	part := func(k, workers int, mod func(*Options)) *Partitioner {
		o := DefaultOptions(k)
		o.Seed = 42
		o.NumWorkers = workers
		if mod != nil {
			mod(&o)
		}
		return mustPartitioner(t, o)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"ws", gen.WattsStrogatz(2000, 8, 0.3, 7)},
		{"ba", gen.BarabasiAlbert(2000, 10, 7)},
	}
	for _, ng := range graphs {
		w := graph.Convert(ng.g)
		arcs := 2 * w.NumEdges() // Σ degree
		for _, workers := range []int{1, 4} {
			pre := fmt.Sprintf("%s/w%d/", ng.name, workers)
			p := part(k, workers, nil)
			res, err := p.Partition(ng.g) // directed input: conversion supersteps
			record(pre+"partition", convertedArcCount(ng.g), res, err)
			res, err = p.PartitionWeighted(w)
			base := record(pre+"weighted", arcs, res, err)

			grown := w.Clone()
			if _, err := gen.GrowthBatch(grown, 0.02, 99).Apply(grown); err != nil {
				t.Fatal(err)
			}
			res, err = p.Adapt(grown, base.Labels, nil)
			record(pre+"adapt", 2*grown.NumEdges(), res, err)
			res, err = part(10, workers, nil).Resize(w, base.Labels, k)
			record(pre+"resize-8-10", arcs, res, err)
			res, err = part(6, workers, nil).Resize(w, base.Labels, k)
			record(pre+"resize-8-6", arcs, res, err)
		}
		for _, opt := range []struct {
			name string
			mod  func(*Options)
		}{
			{"ignore-edge-weights", func(o *Options) { o.IgnoreEdgeWeights = true }},
			{"random-tie-break", func(o *Options) { o.RandomTieBreak = true }},
			{"disable-async-worker-state", func(o *Options) { o.DisableAsyncWorkerState = true }},
			{"capacity-fractions", func(o *Options) { o.CapacityFractions = []float64{4, 3, 2, 2, 1, 1, 1, 1} }},
		} {
			res, err := part(k, 2, opt.mod).PartitionWeighted(w)
			record(ng.name+"/"+opt.name, arcs, res, err)
		}
	}

	if runs != len(goldenLabels) || runs != len(goldenMessages) {
		t.Errorf("%d runs, %d golden entries, %d message counts", runs, len(goldenLabels), len(goldenMessages))
	}
}
