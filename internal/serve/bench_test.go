package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/wal"
)

// BenchmarkServeLookupUnderChurn measures sustained lookup throughput
// (lookups/sec via ns/op) while the partitioning is actively maintained
// underneath: a churn goroutine streams growth batches through the
// mutation log, degradation triggers fire background restabilization runs,
// and their relabels swap in as they merge. This is the
// serving-layer headline number recorded in BENCH_pr2.json.
func BenchmarkServeLookupUnderChurn(b *testing.B) {
	g := gen.WattsStrogatz(20000, 10, 0.2, 31)
	w := graph.Convert(g)
	opts := core.DefaultOptions(8)
	opts.Seed = 31
	opts.MaxIterations = 30
	p, err := core.NewPartitioner(opts)
	if err != nil {
		b.Fatal(err)
	}
	res, err := p.PartitionWeighted(w)
	if err != nil {
		b.Fatal(err)
	}
	shadow := w.Clone()
	st, err := New(w, res.Labels, Config{
		Options:       opts,
		DegradeFactor: 1.02,
		DegradeSlack:  0.001,
		LogDepth:      16,
	})
	if err != nil {
		b.Fatal(err)
	}

	// Churn: keep the mutation log busy for the whole measurement. The
	// generator works against a shadow copy so batch construction never
	// touches the store's graph; TrySubmit sheds load instead of stalling
	// the benchmark when a restabilization backlog builds up.
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		seed := uint64(1000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			mut := gen.GrowthBatch(shadow, 0.002, seed)
			seed++
			if err := st.TrySubmit(mut); err == nil {
				if _, err := mut.Apply(shadow); err != nil {
					b.Error(err)
					return
				}
			}
		}
	}()

	var miss atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		v := graph.VertexID(0)
		for pb.Next() {
			if _, ok := st.Lookup(v); !ok {
				miss.Add(1)
			}
			v = (v + 37) % 20000
		}
	})
	b.StopTimer()
	close(stop)
	<-churnDone
	if err := st.Quiesce(); err != nil {
		b.Fatal(err)
	}
	c := st.Counters()
	b.ReportMetric(float64(c.BatchesApplied.Load()), "batches")
	b.ReportMetric(float64(c.Restabilizations.Load()), "restabs")
	b.ReportMetric(float64(c.StalenessSum.Load())/float64(max(c.Lookups.Load(), 1)), "staleness")
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	if miss.Load() != 0 {
		b.Fatalf("%d lookup misses for always-present vertices", miss.Load())
	}
}

// BenchmarkServeMutateThroughput measures sustained mutation-application
// throughput (ns per 256-edge batch), incremental against exact cut
// tracking (BENCH_pr3.json records it from when the store was sharded):
//
//   - incremental: the coordinator applies each batch (coalesced with
//     whatever queued beside it) and folds O(batch) cut deltas.
//   - exactcut: an exact check (reconcileNow) after every batch forces a
//     full exact cut recompute per applied batch — the seed's per-swap
//     O(E) cost model — against the default incremental O(batch)
//     deltas. This axis is hardware-independent and dominates at scale,
//     since E keeps growing while batches do not.
//   - fresh: incremental over b.N distinct batches. The two cases above
//     cycle 64 batches, so past the first 64 iterations every edge they
//     add exists and merges its weight; here the edges are new and append
//     arcs, the shape of serve-write's marker traffic.
//
// Restabilization is disabled so the numbers isolate the write plane.
func BenchmarkServeMutateThroughput(b *testing.B) {
	const n, batchEdges = 30000, 256
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
	// Pre-generated add-only batches; reusing them is safe: the store reads
	// NewEdges but never retains or mutates the batch.
	makeBatches := func(count int, seed uint64) []*graph.Mutation {
		src := rng.New(seed)
		batches := make([]*graph.Mutation, count)
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
		return batches
	}
	cycled := makeBatches(64, 4242)

	cases := []struct {
		name         string
		exact, fresh bool
	}{
		{"incremental", false, false},
		{"exactcut", true, false}, // seed cost model: exact O(E) pass per batch
		{"fresh", false, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			batches := cycled
			if tc.fresh {
				batches = makeBatches(b.N, 4243)
			}
			st, err := New(w.Clone(), append([]int32(nil), res.Labels...), Config{
				Options:       opts,
				DegradeFactor: 1e9, // isolate the write plane
				LogDepth:      64,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Submit(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
				if tc.exact {
					if err := st.control(st.reconcileNow); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := st.Quiesce(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(batchEdges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkServeMutateDurable measures what durability costs the write
// plane (PR 4 recorded the serial numbers in BENCH_pr4.json; PR 5
// records the pipelined ones in BENCH_pr5.json): the same 256-edge add
// batches as BenchmarkServeMutateThroughput against an in-memory store
// and against journaled stores along two axes —
//
//   - fsync policy: never is the pure framing overhead (binary encode +
//     CRC + one write syscall on the pre-apply path); always adds the
//     disk barrier and is the upper bound an acknowledged-durable
//     configuration pays.
//   - concurrent submitters (subs=1/8): the ISSUE-5 group-commit axis.
//     With one submitter the coordinator journals mostly one entry per
//     group; with 8 submitters the log backs up behind each fsync and
//     the next turn drains the backlog into ONE group append (one write,
//     one fsync) and coalesced applies — so fsync=always
//     amortizes toward the interval policy (the PR-5 gate: within ~3x of
//     fsync=never at 8 submitters, down from ~7x serial). The group-depth
//     metric reports entries per group append.
//
// Periodic checkpoints are disabled so the numbers isolate the journal;
// restabilization is off as in the PR-3 benchmark.
func BenchmarkServeMutateDurable(b *testing.B) {
	const n, batchEdges = 30000, 256
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
	src := rng.New(4242)
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

	cases := []struct {
		name       string
		durable    bool
		fsync      wal.Policy
		submitters int
	}{
		{"inmem", false, 0, 1},
		{"fsync=never/subs=1", true, wal.SyncNever, 1},
		{"fsync=never/subs=8", true, wal.SyncNever, 8},
		{"fsync=interval/subs=8", true, wal.SyncEvery, 8},
		{"fsync=always/subs=1", true, wal.SyncAlways, 1},
		{"fsync=always/subs=8", true, wal.SyncAlways, 8},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := Config{
				Options:       opts,
				DegradeFactor: 1e9, // isolate the write plane
				LogDepth:      64,
				Durability: DurabilityConfig{
					Fsync:             tc.fsync,
					CheckpointEvery:   -1, // isolate the journal from checkpoint cost
					NoFinalCheckpoint: true,
				},
			}
			var st *Store
			var err error
			if tc.durable {
				st, err = NewDurable(b.TempDir(), w.Clone(), append([]int32(nil), res.Labels...), cfg)
			} else {
				st, err = New(w.Clone(), append([]int32(nil), res.Labels...), cfg)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for sub := 0; sub < tc.submitters; sub++ {
				count := b.N / tc.submitters
				if sub < b.N%tc.submitters {
					count++
				}
				wg.Add(1)
				go func(sub, count int) {
					defer wg.Done()
					for i := 0; i < count; i++ {
						if err := st.Submit(batches[(sub*17+i)%len(batches)]); err != nil {
							b.Error(err)
							return
						}
					}
				}(sub, count)
			}
			wg.Wait()
			if err := st.Quiesce(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(batchEdges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
			c := st.Counters()
			if tc.durable {
				b.ReportMetric(float64(c.JournalBytes.Load())/float64(b.N), "journalB/op")
				b.ReportMetric(float64(c.JournalSyncs.Load()), "fsyncs")
				b.ReportMetric(c.GroupCommitDepth(), "group-depth")
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkServeFairness measures a well-behaved tenant's submit→commit
// latency (ns/op, with the p99 tail as p99-ns) with and without an
// abusive tenant flooding the mutation log — the multi-tenancy gate of
// ISSUE 6, recorded in BENCH_pr6.json. The trickle tenant submits one
// batch at a time and waits for it to commit; under flood=on a second
// goroutine fires TrySubmit as fast as the log accepts (typically two
// orders of magnitude more batches than the trickle tenant), relying on
// the deficit-round-robin drain to bound the trickle tenant's wait to
// one coordinator turn. The gate: flood=on ns/op within ~2x of
// flood=off.
func BenchmarkServeFairness(b *testing.B) {
	const n, batchEdges = 20000, 64
	g := gen.WattsStrogatz(n, 10, 0.2, 51)
	w := graph.Convert(g)
	opts := core.DefaultOptions(8)
	opts.Seed = 51
	opts.MaxIterations = 30
	p, err := core.NewPartitioner(opts)
	if err != nil {
		b.Fatal(err)
	}
	res, err := p.PartitionWeighted(w)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(5151)
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
		name  string
		flood bool
	}{
		{"flood=off", false},
		{"flood=on", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			st, err := New(w.Clone(), append([]int32(nil), res.Labels...), Config{
				Options:       opts,
				DegradeFactor: 1e9, // isolate the write plane
				LogDepth:      16,
			})
			if err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			var floodDone chan struct{}
			if tc.flood {
				floodDone = make(chan struct{})
				go func() {
					defer close(floodDone)
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						m := *batches[i%len(batches)] // shallow copy: retag only
						m.Tenant = "flood"
						if err := st.TrySubmit(&m); errors.Is(err, ErrLogFull) {
							// Back off instead of hot-spinning: a spin loop
							// would measure CPU starvation of the
							// coordinator, not queueing fairness.
							time.Sleep(20 * time.Microsecond)
						} else if err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}

			trickle := st.tenant("trickle")
			samples := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := *batches[i%len(batches)]
				m.Tenant = "trickle"
				start := time.Now()
				if err := st.Submit(&m); err != nil {
					b.Fatal(err)
				}
				want := int64(i + 1)
				for trickle.committed.Load() < want {
					time.Sleep(10 * time.Microsecond)
				}
				samples = append(samples, time.Since(start))
			}
			b.StopTimer()
			close(stop)
			if floodDone != nil {
				<-floodDone
			}
			if err := st.Quiesce(); err != nil {
				b.Fatal(err)
			}
			slices.Sort(samples)
			b.ReportMetric(float64(samples[len(samples)*99/100]), "p99-ns")
			if tc.flood {
				fl := st.Tenants()["flood"]
				b.ReportMetric(float64(fl.Committed)/float64(b.N), "flood-ratio")
			}
			b.ReportMetric(float64(st.ctr.FairnessPasses.Load()), "fair-passes")
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAppendBatch is one batch, submitted and quiesced, on a graph of
// the benchmark's serving size (50 000 vertices, 1.0 M arcs): an add-only
// batch, and one that appends a vertex, placed from the maintained loads;
// both take the one apply path. The second must stay within a small
// multiple of the first — it cost an O(E) scan, 100 times the first, while
// placement re-derived the loads from the graph.
func BenchmarkAppendBatch(b *testing.B) {
	const n, k = 50_000, 8
	for _, mode := range []string{"add-only", "append-vertex"} {
		b.Run("batch="+mode, func(b *testing.B) {
			w := graph.Convert(gen.WattsStrogatz(n, 20, 0.1, 7))
			labels := make([]int32, n)
			for v := range labels {
				labels[v] = int32(v * k / n)
			}
			st, err := New(w, labels, Config{Options: storeOpts(k, 7), DegradeFactor: 1e9})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := i % n
				m := &graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{{
					U: graph.VertexID(u), V: graph.VertexID((u + 1 + i%97) % n), Weight: 2}}}
				if mode == "append-vertex" {
					m.NewVertices = 1
					m.NewEdges[0].U = graph.VertexID(n + i)
				}
				if err := st.Submit(m); err != nil {
					b.Fatal(err)
				}
				if err := st.Quiesce(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRelabel times the relabeling events the serving loop lands
// without a batch, at serve-write's shape (50 000 vertices, 1.0 M arcs,
// k = 32). op=relabel: Store.relabel of a relabeling that changes a
// random 1 / 10 / 20 / 100 % of the labels (the counters move, or past
// moveShare are counted, and the new array is published). op=resize:
// Store.resize's whole cost, 32 → 40 and back in turn
// (core.ElasticRelabel and the relabel); changed-% is the share of labels
// it changed. hold-µs is one coordinator control's wall time; ns/op also
// counts the untimed setup of each op (the relabeling), so read hold-µs.
func BenchmarkRelabel(b *testing.B) {
	const n, k = 50_000, 32
	newStore := func(b *testing.B) *Store {
		w := graph.Convert(gen.WattsStrogatz(n, 20, 0.1, 7))
		labels := make([]int32, n)
		for v := range labels {
			labels[v] = int32(v * k / n)
		}
		st, err := New(w, labels, Config{Options: storeOpts(k, 7), DegradeFactor: 1e9})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		return st
	}
	hold := func(b *testing.B, st *Store, fn func()) time.Duration {
		t0 := time.Now()
		if err := st.control(func() error { fn(); return nil }); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	for _, pct := range []int{1, 10, 20, 100} {
		b.Run(fmt.Sprintf("op=relabel/changed=%d%%", pct), func(b *testing.B) {
			st := newStore(b)
			var held time.Duration
			for i := 0; i < b.N; i++ {
				var merged []int32
				if err := st.control(func() error {
					merged = slices.Clone(st.labels)
					r := rng.New(uint64(i))
					for v := range merged {
						if r.Intn(100) < pct {
							merged[v] = (merged[v] + 1 + r.Int31n(k-1)) % k
						}
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				held += hold(b, st, func() { st.relabel(merged) })
			}
			b.ReportMetric(float64(held.Microseconds())/float64(b.N), "hold-µs")
		})
	}
	b.Run("op=resize", func(b *testing.B) {
		st := newStore(b)
		var held time.Duration
		for i := 0; i < b.N; i++ {
			newK := 40
			if i%2 == 1 {
				newK = k
			}
			// The repair run a resize asks for is not started, so no merge
			// lands between the timed holds.
			held += hold(b, st, func() { st.resize(newK); st.wantRestab = false })
		}
		b.ReportMetric(float64(held.Microseconds())/float64(b.N), "hold-µs")
		b.ReportMetric(100*float64(st.Counters().ElasticSeedMoved.Load())/float64(n*b.N), "changed-%")
	})
}
