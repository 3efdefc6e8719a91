package serve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/wal"
)

// BenchmarkCheckpointDelta is the PR-8 acceptance gate: checkpoint bytes
// per interval on a low-churn history after a large base, incremental
// chain vs full re-encode. Each iteration applies one small (64-edge)
// batch to a 30k-vertex store and synchronously installs one checkpoint,
// exactly what the periodic checkpointer does per cadence point. The
// reported B/op is overridden with the installed checkpoint payload
// bytes, so the recorded bytes_per_op IS the bytes-per-interval figure —
// mode=incr must come in >= 5x below mode=full (label churn is a few
// runs; a full re-encode carries all |E| edges every time).
func BenchmarkCheckpointDelta(b *testing.B) {
	const n, batchEdges = 30000, 64
	g := gen.WattsStrogatz(n, 10, 0.2, 41)
	w := graph.Convert(g)
	opts := core.DefaultOptions(8)
	opts.Seed = 41
	opts.MaxIterations = 30
	p, err := core.NewPartitioner(opts)
	if err != nil {
		b.Fatal(err)
	}
	res, err := p.PartitionWeighted(w)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(77)
	batches := make([]*graph.Mutation, 64)
	for i := range batches {
		m := &graph.Mutation{NewEdges: make([]graph.WeightedEdgeRecord, 0, batchEdges)}
		for len(m.NewEdges) < batchEdges {
			u, v := graph.VertexID(src.Intn(n)), graph.VertexID(src.Intn(n))
			if u != v {
				m.NewEdges = append(m.NewEdges, graph.WeightedEdgeRecord{U: u, V: v, Weight: 2})
			}
		}
		batches[i] = m
	}

	for _, tc := range []struct {
		name     string
		maxChain int
	}{
		{"mode=incr", 1 << 20}, // chain effectively unbounded: every interval is a delta
		{"mode=full", -1},      // incremental checkpoints disabled
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := Config{
				Options:       opts,
				Shards:        2,
				DegradeFactor: 1e9, // isolate the checkpoint plane
				Durability: DurabilityConfig{
					Fsync:             wal.SyncNever,
					CheckpointEvery:   -1, // checkpoints driven synchronously below
					NoFinalCheckpoint: true,
					MaxDeltaChain:     tc.maxChain,
				},
			}
			st, err := NewDurable(b.TempDir(), w.Clone(), append([]int32(nil), res.Labels...), cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			var payloadBytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Submit(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
				if err := st.Quiesce(); err != nil {
					b.Fatal(err)
				}
				var cs *ckptState
				st.withBarrier(func() { cs = st.captureState(true) })
				res := st.writeCheckpointState(cs)
				if res.err != nil {
					b.Fatal(res.err)
				}
				payloadBytes += int64(res.bytes)
			}
			b.StopTimer()
			b.ReportMetric(float64(payloadBytes)/float64(b.N), "B/op")
		})
	}
}
