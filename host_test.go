package repro

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// outcome is one run's fingerprint: a hash of its labels or values, its
// iterations (supersteps for the analytics programs) and its messages.
type outcome struct {
	hash       uint64
	iterations int
	messages   int64
}

func hashWords[T int32 | float64](xs []T) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		switch x := any(x).(type) {
		case int32:
			binary.LittleEndian.PutUint64(b[:], uint64(uint32(x)))
		case float64:
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func appOutcome[T int32 | float64](t *testing.T, values []T, r *apps.Result, err error) outcome {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var msgs int64
	for _, st := range r.Stats {
		msgs += st.TotalSent()
	}
	return outcome{hashWords(values), r.Supersteps, msgs}
}

// TestLabelsIndependentOfGOMAXPROCS: at the default worker count a run is a
// function of (graph, options, seed), never of the host. Partition, Adapt
// and Resize, and the three analytics programs, give the same labels or
// values, iterations and messages under GOMAXPROCS 1, 2 and 4.
func TestLabelsIndependentOfGOMAXPROCS(t *testing.T) {
	const k = 16
	g := gen.BarabasiAlbert(5000, 8, 3)
	w := graph.Convert(g)
	grown := w.Clone()
	if _, err := gen.GrowthBatch(grown, 0.02, 5).Apply(grown); err != nil {
		t.Fatal(err)
	}
	part := func(k int) *core.Partitioner {
		opts := core.DefaultOptions(k)
		opts.Seed = 11
		p, err := core.NewPartitioner(opts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	lpa := func(r *core.Result, err error) outcome {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return outcome{hashWords(r.Labels), r.Iterations, r.Messages}
	}
	run := func() map[string]outcome {
		base, err := part(k).Partition(g)
		out := map[string]outcome{"partition": lpa(base, err)}
		out["adapt"] = lpa(part(k).Adapt(grown, base.Labels, nil))
		out["resize"] = lpa(part(k+4).Resize(w, base.Labels, k))
		pr, r, err := apps.PageRank(g, 20, apps.RunConfig{})
		out["pagerank"] = appOutcome(t, pr, r, err)
		dist, r, err := apps.SSSP(g, 0, apps.RunConfig{})
		out["sssp"] = appOutcome(t, dist, r, err)
		comp, r, err := apps.WCC(g, apps.RunConfig{})
		out["wcc"] = appOutcome(t, comp, r, err)
		return out
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want map[string]outcome
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := run()
		if want == nil {
			want = got
			continue
		}
		for name, o := range got {
			if o != want[name] {
				t.Errorf("GOMAXPROCS=%d: %s gave %+v, at GOMAXPROCS=1 %+v", procs, name, o, want[name])
			}
		}
	}
}
