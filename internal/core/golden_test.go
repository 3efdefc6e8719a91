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

// goldenLabels were recorded when every draw of a run became a pure
// function of (seed, superstep, vertex, site) instead of a position in a
// worker's random stream, the change after 182a728: that moved every
// entry, deliberately; CHANGES.md lists the entries before and after with
// φ, ρ and iterations. Every entry must now repeat exactly: a performance
// change to core or pregel leaves this table untouched. Partition is
// graph.Convert then PartitionWeighted, so it has no entries of its own:
// it must repeat its weighted twin exactly. AffectedOnly is absent on
// purpose: TestAffectedOnlyRestricts covers it.
var goldenLabels = map[string]golden{
	"ws/w1/weighted":        {0xf79d296dc5b8c325, 34, 45792},
	"ws/w1/adapt":           {0xa979f05f0bff26f2, 7, 4491},
	"ws/w1/resize-8-10":     {0xfe9aa107ab8c54f, 26, 27672},
	"ws/w1/resize-8-6":      {0x27999c61b7b8c410, 20, 17206},
	"ws/w4/weighted":        {0x4a9d72d9f3b78bb1, 45, 51935},
	"ws/w4/adapt":           {0x5cee2d36ad90d476, 7, 3592},
	"ws/w4/resize-8-10":     {0xd1999242dc38c5bb, 27, 29040},
	"ws/w4/resize-8-6":      {0x3d8c04753e3c8284, 20, 13897},
	"ws/capacity-fractions": {0x8716954a95640e85, 35, 50040},
	"ba/w1/weighted":        {0x4b8d4b652f550914, 59, 117317},
	"ba/w1/adapt":           {0x1cf8849101f429f0, 11, 22334},
	"ba/w1/resize-8-10":     {0xe42852a79883baab, 29, 56838},
	"ba/w1/resize-8-6":      {0xbbb0d324b5aab6b3, 38, 73805},
	"ba/w4/weighted":        {0xa1a5df7f4283aca4, 54, 110974},
	"ba/w4/adapt":           {0x477e12eed39a4175, 19, 38405},
	"ba/w4/resize-8-10":     {0xd0f51f44894f223a, 33, 66472},
	"ba/w4/resize-8-6":      {0x530c8969db544470, 27, 54351},
	"ba/capacity-fractions": {0x98f4e3c820fa0663, 40, 87324},
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
