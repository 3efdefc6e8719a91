package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// golden is one run's fingerprint: the hash of its labels (FNV-64a over
// the little-endian labels), its iteration count, and Result.Messages —
// migration announcements, the only messages a run sends. The count moves
// first when a tie or a migration differs.
type golden struct {
	hash       uint64
	iterations int
	messages   int64
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

// goldenLabels were recorded when the histogram's bars moved to label
// order, the change after 64e4504. Ties are drawn in the order the bars are
// visited, so that change moved every entry, deliberately; CHANGES.md lists
// the entries before and after with φ, ρ and iterations. Every entry must
// now repeat exactly: a performance change to core or pregel leaves this
// table untouched. Partition is graph.Convert then PartitionWeighted, so it
// has no entries of its own: it must repeat its weighted twin exactly.
// AffectedOnly is absent on purpose: TestAffectedOnlyRestricts covers it.
// The adapt entries' message counts fell when graph.Weighted became simple
// (the change after 5fbc4f6): the growth batch re-adds pairs, whose weight
// now sits on one arc, so a migrating vertex announces it once; labels and
// iterations held.
var goldenLabels = map[string]golden{
	"ws/w1/weighted":        {0x66a2bed499824b71, 48, 58055},
	"ws/w1/adapt":           {0xfd1ec95fca259f56, 13, 8387},
	"ws/w1/resize-8-10":     {0x40d70c82876535ef, 23, 23604},
	"ws/w1/resize-8-6":      {0x6afa253d438825c1, 19, 16125},
	"ws/w4/weighted":        {0xf3c2a22180a4c6d1, 38, 48085},
	"ws/w4/adapt":           {0xc5b5f813a44f8ab7, 14, 8706},
	"ws/w4/resize-8-10":     {0x89a1c5f022384a05, 32, 29104},
	"ws/w4/resize-8-6":      {0x8e5d652a989f4291, 21, 20514},
	"ws/capacity-fractions": {0x39e089be962e0163, 36, 46414},
	"ba/w1/weighted":        {0x96ec8c437e1bf646, 58, 114445},
	"ba/w1/adapt":           {0xdabc817c319c7760, 23, 46104},
	"ba/w1/resize-8-10":     {0x8ccba2700480b47a, 29, 58073},
	"ba/w1/resize-8-6":      {0x664aff19a0321c2, 20, 38860},
	"ba/w4/weighted":        {0xdb4c29c0950b377, 54, 107569},
	"ba/w4/adapt":           {0x3fc7300911ba0b07, 37, 73272},
	"ba/w4/resize-8-10":     {0xe5af9f16834125cb, 37, 73979},
	"ba/w4/resize-8-6":      {0x4f7001da89a74337, 33, 66027},
	"ba/capacity-fractions": {0x11bef916f9722335, 55, 104556},
}

// TestGoldenLabels pins the labels of every entry point and every scoring
// option on a small-world graph and on a hub-skewed one (hub degree far
// above k, so hubs see every label), at 1 and 4 workers.
func TestGoldenLabels(t *testing.T) {
	const k = 8
	runs := 0
	record := func(name string, res *Result, err error) *Result {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs++
		want := goldenLabels[name]
		if h := hashLabels(res.Labels); h != want.hash || res.Iterations != want.iterations {
			t.Errorf("%q: labels %#x after %d iterations, recorded %#x after %d", name, h, res.Iterations, want.hash, want.iterations)
		}
		if res.Messages != want.messages {
			t.Errorf("%q: %d messages, recorded %d", name, res.Messages, want.messages)
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
		for _, workers := range []int{1, 4} {
			pre := fmt.Sprintf("%s/w%d/", ng.name, workers)
			p := part(k, workers, nil)
			res, err := p.PartitionWeighted(w)
			base := record(pre+"weighted", res, err)
			direct, err := p.Partition(ng.g)
			if err != nil {
				t.Fatal(err)
			}
			if h := hashLabels(direct.Labels); h != hashLabels(base.Labels) || direct.Iterations != base.Iterations || direct.Messages != base.Messages {
				t.Errorf("%s: Partition gave %#x after %d iterations and %d messages, its weighted twin %#x after %d and %d",
					pre, h, direct.Iterations, direct.Messages, hashLabels(base.Labels), base.Iterations, base.Messages)
			}

			grown := w.Clone()
			if _, err := gen.GrowthBatch(grown, 0.02, 99).Apply(grown); err != nil {
				t.Fatal(err)
			}
			res, err = p.Adapt(grown, base.Labels, nil)
			record(pre+"adapt", res, err)
			res, err = part(10, workers, nil).Resize(w, base.Labels, k)
			record(pre+"resize-8-10", res, err)
			res, err = part(6, workers, nil).Resize(w, base.Labels, k)
			record(pre+"resize-8-6", res, err)
		}
		for _, opt := range []struct {
			name string
			mod  func(*Options)
		}{
			{"capacity-fractions", func(o *Options) { o.CapacityFractions = []float64{4, 3, 2, 2, 1, 1, 1, 1} }},
		} {
			res, err := part(k, 2, opt.mod).PartitionWeighted(w)
			record(ng.name+"/"+opt.name, res, err)
		}
	}

	if runs != len(goldenLabels) {
		t.Errorf("%d runs, %d golden entries", runs, len(goldenLabels))
	}
}
