package serve

import (
	"testing"
	"time"

	"repro/internal/graph"
)

// TestStageHistogramsFillUnderChurn drives mutations, a resize and a
// checkpoint through a durable store and checks every pipeline stage
// histogram recorded at least one observation — the wiring test for the
// stage-timing seams.
func TestStageHistogramsFillUnderChurn(t *testing.T) {
	dir := t.TempDir()
	w, labels := twoClusters(50)
	st, err := NewDurable(dir, w, labels, durableCfg(3)) // checkpoints at least 3 batches apart
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	runScript(t, st) // 6 batches + quiesces + one resize at the end
	waitCheckpoint(t, st)
	for i, h := range st.stageHist {
		if h.Snapshot().Count == 0 {
			t.Errorf("stage %q histogram empty after churn", stageNames[i])
		}
	}
}

// waitCheckpoint blocks until at least one background checkpoint has
// fully completed (written and acknowledged by the coordinator).
func waitCheckpoint(t *testing.T, st *Store) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for st.ctr.Checkpoints.Load() < 2 || st.ctr.CheckpointsPending.Load() != 0 { // the initial one counts too
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint completed (done=%d pending=%d)",
				st.ctr.Checkpoints.Load(), st.ctr.CheckpointsPending.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLookupSampling checks the sampling mask: 1-in-N fills the lookup
// histogram at ~1/N of the lookup count, and a negative configuration
// disables timing entirely without disturbing the lookup counters.
func TestLookupSampling(t *testing.T) {
	w, labels := twoClusters(40)
	st, err := New(w, labels, Config{Options: storeOpts(2, 1), LookupSampleEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const lookups = 1024
	for i := 0; i < lookups; i++ {
		st.Lookup(graph.VertexID(i % 80))
	}
	snap := st.lookupHist.Snapshot()
	if want := int64(lookups / 4); snap.Count != want {
		t.Fatalf("sampled %d of %d lookups, want %d", snap.Count, lookups, want)
	}
	if st.ctr.Lookups.Load() != lookups {
		t.Fatalf("Lookups counter %d, want %d", st.ctr.Lookups.Load(), lookups)
	}

	w2, labels2 := twoClusters(40)
	off, err := New(w2, labels2, Config{Options: storeOpts(2, 1), LookupSampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	for i := 0; i < lookups; i++ {
		off.Lookup(graph.VertexID(i % 80))
	}
	if got := off.lookupHist.Snapshot().Count; got != 0 {
		t.Fatalf("disabled sampling recorded %d observations", got)
	}
}

// TestLookupAllocs enforces the zero-allocation budget on the
// instrumented lookup path, sampled iterations included.
func TestLookupAllocs(t *testing.T) {
	w, labels := twoClusters(40)
	st, err := New(w, labels, Config{Options: storeOpts(2, 1), LookupSampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if allocs := testing.AllocsPerRun(1000, func() {
		st.Lookup(3)
	}); allocs > 0 {
		t.Fatalf("instrumented Lookup allocates %v per op, want 0", allocs)
	}
}

// BenchmarkServeLookupInstrumented measures the steady-state lookup path
// with latency sampling at the default 1-in-256 rate against sampling
// disabled — the instrumentation-overhead number recorded in
// BENCH_pr9.json. The contract: the sampled variant stays within ~10% of
// the uninstrumented ~50ns path, with zero extra allocations.
func BenchmarkServeLookupInstrumented(b *testing.B) {
	for _, bc := range []struct {
		name  string
		every int
	}{
		{"sampled", 0},    // default: one in 256 lookups timed
		{"unsampled", -1}, // timing disabled: the baseline
	} {
		b.Run(bc.name, func(b *testing.B) {
			w, labels := twoClusters(10000)
			st, err := New(w, labels, Config{Options: storeOpts(2, 1), LookupSampleEvery: bc.every})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				v := graph.VertexID(0)
				for pb.Next() {
					st.Lookup(v)
					v = (v + 37) % 20000
				}
			})
		})
	}
}
