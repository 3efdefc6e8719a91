package serve

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// twoClusters builds a weighted graph of two dense pseudo-random clusters
// of size half joined by a single bridge, with the obvious 2-way labeling.
// Its near-zero cut ratio makes restabilization triggers easy to provoke.
func twoClusters(half int) (*graph.Weighted, []int32) {
	w := graph.NewWeighted(2 * half)
	addClique := func(off int) {
		for i := 0; i < half; i++ {
			for j := 1; j <= 6; j++ {
				u := (i + j*j*7 + 13*j) % half
				if u != i && i < u {
					dup := false
					for _, a := range w.Neighbors(graph.VertexID(off + i)) {
						if a.To == graph.VertexID(off+u) {
							dup = true
							break
						}
					}
					if !dup {
						w.AddEdge(graph.VertexID(off+i), graph.VertexID(off+u), 2)
					}
				}
			}
		}
	}
	addClique(0)
	addClique(half)
	w.AddEdge(0, graph.VertexID(half), 2)
	labels := make([]int32, 2*half)
	for v := half; v < 2*half; v++ {
		labels[v] = 1
	}
	return w, labels
}

func storeOpts(k int, seed uint64) core.Options {
	o := core.DefaultOptions(k)
	o.Seed = seed
	o.NumWorkers = 2
	o.MaxIterations = 60
	return o
}

func TestStoreLookupAndSnapshot(t *testing.T) {
	w, labels := twoClusters(40)
	st, err := New(w, labels, Config{Options: storeOpts(2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if l, ok := st.Lookup(0); !ok || l != 0 {
		t.Fatalf("Lookup(0) = %d,%v want 0,true", l, ok)
	}
	if l, ok := st.Lookup(41); !ok || l != 1 {
		t.Fatalf("Lookup(41) = %d,%v want 1,true", l, ok)
	}
	if _, ok := st.Lookup(-1); ok {
		t.Fatal("negative vertex resolved")
	}
	if _, ok := st.Lookup(10_000); ok {
		t.Fatal("out-of-range vertex resolved")
	}
	snap := st.Snapshot()
	if snap.K != 2 || len(snap.Labels) != 80 || snap.Version == 0 {
		t.Fatalf("bad initial snapshot %+v", snap)
	}
	c := st.Counters()
	if c.Lookups.Load() != 4 || c.LookupMisses.Load() != 2 {
		t.Fatalf("counters %v", c)
	}
}

func TestStoreConstructionValidation(t *testing.T) {
	w, labels := twoClusters(10)
	if _, err := New(w, labels[:5], Config{Options: storeOpts(2, 1)}); err == nil {
		t.Fatal("short label slice accepted")
	}
	bad := append([]int32(nil), labels...)
	bad[3] = 7
	if _, err := New(w, bad, Config{Options: storeOpts(2, 1)}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, err := New(w, labels, Config{Options: core.Options{K: 0}}); err == nil {
		t.Fatal("invalid partitioner options accepted")
	}
	if _, err := New(w, labels, Config{Options: storeOpts(2, 1), DegradeFactor: 0.5}); err == nil {
		t.Fatal("DegradeFactor < 1 accepted")
	}
}

// New vertices arriving in batches become visible to lookups with valid,
// least-loaded-seeded labels, without any restabilization run.
func TestStoreSeedsNewVertices(t *testing.T) {
	w, labels := twoClusters(40)
	st, err := New(w, labels, Config{Options: storeOpts(2, 1), DegradeFactor: 100}) // never restabilize
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	mut := &graph.Mutation{NewVertices: 10}
	for i := 0; i < 10; i++ {
		mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{U: graph.VertexID(80 + i), V: graph.VertexID(i), Weight: 2})
	}
	if err := st.Submit(mut); err != nil {
		t.Fatal(err)
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if len(snap.Labels) != 90 {
		t.Fatalf("snapshot has %d labels, want 90", len(snap.Labels))
	}
	if err := metrics.ValidateLabels(snap.Labels, 2); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 80; v++ {
		if snap.Labels[v] != labels[v] {
			t.Fatalf("existing vertex %d moved without a restabilization", v)
		}
	}
	c := st.Counters()
	if c.VerticesAdded.Load() != 10 || c.BatchesApplied.Load() != 1 || c.Restabilizations.Load() != 0 {
		t.Fatalf("counters %v", c)
	}
}

// A batch that fails validation must leave the store exactly as it was:
// same labels, same vertex count, same cut — and later batches still apply.
func TestStoreRejectsBadBatchAtomically(t *testing.T) {
	w, labels := twoClusters(40)
	st, err := New(w, labels, Config{Options: storeOpts(2, 1), DegradeFactor: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	before := st.Snapshot()

	bad := &graph.Mutation{RemovedEdges: []graph.Edge{{From: 1, To: 2}, {From: 1, To: 2}, {From: 1, To: 2}}}
	if err := st.Submit(bad); err != nil {
		t.Fatal(err)
	}
	if err := st.Quiesce(); err == nil {
		t.Fatal("Quiesce did not surface the batch rejection")
	}
	after := st.Snapshot()
	if len(after.Labels) != len(before.Labels) || after.CutRatio != before.CutRatio {
		t.Fatalf("rejected batch changed state: %+v -> %+v", before, after)
	}
	if st.Err() == nil {
		t.Fatal("Err() empty after rejection")
	}
	c := st.Counters()
	if c.BatchesRejected.Load() != 1 || c.BatchesApplied.Load() != 0 {
		t.Fatalf("counters %v", c)
	}

	good := &graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{{U: 0, V: 2, Weight: 2}}}
	if err := st.Submit(good); err != nil {
		t.Fatal(err)
	}
	_ = st.Quiesce() // still reports the sticky last error; application proceeds
	if got := st.Counters().BatchesApplied.Load(); got != 1 {
		t.Fatalf("good batch after rejection not applied: %d", got)
	}
}

// Degrading the cut past the threshold triggers a background run that
// restores it; the run must improve the cut and count migration volume.
func TestStoreRestabilizationTrigger(t *testing.T) {
	w, labels := twoClusters(60)
	st, err := New(w, labels, Config{Options: storeOpts(2, 3), DegradeFactor: 1.05})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := st.Snapshot().CutRatio

	// Move a block of cluster-0 vertices' worth of edges across: add many
	// cross-cluster edges to wreck locality.
	mut := &graph.Mutation{}
	for i := 0; i < 120; i++ {
		u := graph.VertexID(i % 60)
		v := graph.VertexID(60 + (i*7)%60)
		mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{U: u, V: v, Weight: 2})
	}
	if err := st.Submit(mut); err != nil {
		t.Fatal(err)
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	c := st.Counters()
	if c.Restabilizations.Load() < 1 {
		t.Fatalf("no restabilization ran (counters %v)", c)
	}
	snap := st.Snapshot()
	if snap.Epoch < 1 {
		t.Fatalf("snapshot epoch %d, want >= 1", snap.Epoch)
	}
	if err := metrics.ValidateLabels(snap.Labels, 2); err != nil {
		t.Fatal(err)
	}
	if c.MigratedVertices.Load() > 0 && c.MigratedWeight.Load() == 0 {
		t.Fatal("migrated vertices with zero dragged weight")
	}
	// The run must not leave the cut materially worse than where the batch
	// pushed it; on this topology it reliably improves it.
	degraded := 1 - metricsPhiOnSubmit(t, w, labels, mut)
	if snap.CutRatio > degraded {
		t.Fatalf("restabilized cut %.4f worse than degraded cut %.4f (baseline %.4f)", snap.CutRatio, degraded, base)
	}
}

// metricsPhiOnSubmit replays the batch on a private copy to compute the
// degraded cut the store saw before restabilizing.
func metricsPhiOnSubmit(t *testing.T, w *graph.Weighted, labels []int32, mut *graph.Mutation) float64 {
	t.Helper()
	// w was handed to the store; rebuild an identical copy.
	cp, lcp := twoClusters(60)
	_ = w
	if _, err := mut.Apply(cp); err != nil {
		t.Fatal(err)
	}
	return metrics.Phi(cp, lcp)
}

// Acceptance criterion: an elastic k→k+2 change must migrate incrementally
// (the probabilistic n/(k+n) fraction plus LPA repair, never a full
// recompute) and land within 10% of a from-scratch run's cut ratio on the
// same graph.
func TestStoreElasticResizeIncremental(t *testing.T) {
	const oldK, newK = 8, 10
	g := gen.WattsStrogatz(4000, 10, 0.2, 17)
	w := graph.Convert(g)

	p, err := core.NewPartitioner(storeOpts(oldK, 5))
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := p.PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	baseLabels := append([]int32(nil), baseRes.Labels...)

	st, err := New(w.Clone(), append([]int32(nil), baseRes.Labels...), Config{Options: storeOpts(oldK, 5)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Resize(newK); err != nil {
		t.Fatal(err)
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.K != newK {
		t.Fatalf("snapshot k = %d, want %d", snap.K, newK)
	}
	if err := metrics.ValidateLabels(snap.Labels, newK); err != nil {
		t.Fatal(err)
	}
	c := st.Counters()
	if c.ElasticResizes.Load() != 1 {
		t.Fatalf("counters %v", c)
	}
	// The probabilistic relabeling moves ≈ n/(k+n) = 20% of vertices.
	seedFrac := float64(c.ElasticSeedMoved.Load()) / 4000
	if seedFrac < 0.1 || seedFrac > 0.35 {
		t.Fatalf("elastic seed moved %.1f%% of vertices, want ≈20%%", 100*seedFrac)
	}

	// Incrementality: the end-to-end move fraction stays far below a
	// from-scratch recompute, which reshuffles nearly everything.
	scratch, err := core.NewPartitioner(storeOpts(newK, 5))
	if err != nil {
		t.Fatal(err)
	}
	scratchRes, err := scratch.PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	elasticMoved := metrics.Difference(baseLabels, snap.Labels)
	scratchMoved := metrics.Difference(baseLabels, scratchRes.Labels)
	if elasticMoved >= scratchMoved {
		t.Fatalf("elastic moved %.1f%% of vertices, scratch moved %.1f%% — not incremental",
			100*elasticMoved, 100*scratchMoved)
	}
	if elasticMoved > 0.6 {
		t.Fatalf("elastic moved %.1f%% of vertices — effectively a recompute", 100*elasticMoved)
	}

	// Quality: cut ratio within 10% of from-scratch.
	scratchCut := 1 - metrics.Phi(w, scratchRes.Labels)
	if snap.CutRatio > scratchCut*1.10+0.01 {
		t.Fatalf("elastic cut %.4f not within 10%% of scratch cut %.4f", snap.CutRatio, scratchCut)
	}
}

// Acceptance criterion: concurrent lookups stay valid and race-clean while
// an in-flight restabilization (triggered by concurrent mutation batches)
// runs underneath. Run with -race.
func TestStoreConcurrentLookupsDuringRestabilization(t *testing.T) {
	g := gen.WattsStrogatz(3000, 8, 0.2, 23)
	w := graph.Convert(g)
	p, err := core.NewPartitioner(storeOpts(4, 7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	shadow := w.Clone()
	st, err := New(w, res.Labels, Config{Options: storeOpts(4, 7), DegradeFactor: 1.01, DegradeSlack: 0.0001})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var lookupsDone sync.WaitGroup
	var invalid atomic.Int64
	for r := 0; r < 4; r++ {
		lookupsDone.Add(1)
		go func(r int) {
			defer lookupsDone.Done()
			v := graph.VertexID(r * 31)
			var lastVersion uint64
			for !stop.Load() {
				snap := st.Snapshot()
				if snap.Version < lastVersion {
					invalid.Add(1) // versions must be monotonic per reader
				}
				lastVersion = snap.Version
				l, ok := st.Lookup(v % graph.VertexID(len(snap.Labels)))
				if !ok || l < 0 || int(l) >= snap.K {
					// The vertex may be beyond a *newer* snapshot's range;
					// invalid only when inside and mislabeled.
					if ok {
						invalid.Add(1)
					}
				}
				v += 7
			}
		}(r)
	}

	// Writer: degrade locality hard so a restabilization must trigger, and
	// keep batches flowing while it runs.
	deadline := time.After(20 * time.Second)
	for batch := 0; ; batch++ {
		mut := gen.GrowthBatch(shadow, 0.01, uint64(100+batch))
		if _, err := mut.Apply(shadow); err != nil {
			t.Fatal(err)
		}
		cp := &graph.Mutation{NewEdges: append([]graph.WeightedEdgeRecord(nil), mut.NewEdges...)}
		if err := st.Submit(cp); err != nil {
			t.Fatal(err)
		}
		if st.Counters().Restabilizations.Load() >= 1 {
			break // lookups demonstrably overlapped a full run
		}
		select {
		case <-deadline:
			t.Fatal("no restabilization completed within deadline")
		default:
		}
	}
	stop.Store(true)
	lookupsDone.Wait()
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if invalid.Load() != 0 {
		t.Fatalf("%d invalid lookups observed", invalid.Load())
	}
	c := st.Counters()
	if c.Lookups.Load() == 0 || c.BatchesApplied.Load() == 0 || c.Restabilizations.Load() == 0 {
		t.Fatalf("concurrency test exercised nothing: %v", c)
	}
	if err := metrics.ValidateLabels(st.Snapshot().Labels, st.Snapshot().K); err != nil {
		t.Fatal(err)
	}
}

// With a fixed seed, a quiesced entry sequence must produce bit-identical
// labels across repeated runs — at 1 and at 4 workers (compared within
// each worker count, as in the core determinism tests).
func TestStoreDeterminismAcrossRuns(t *testing.T) {
	for _, workers := range []int{1, 4} {
		run := func() []int32 {
			w, labels := twoClusters(50)
			o := storeOpts(2, 9)
			o.NumWorkers = workers
			st, err := New(w, append([]int32(nil), labels...), Config{Options: o, DegradeFactor: 1.05})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			mut := &graph.Mutation{NewVertices: 5}
			for i := 0; i < 60; i++ {
				mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{
					U: graph.VertexID(i % 50), V: graph.VertexID(50 + (i*3)%50), Weight: 2})
			}
			for i := 0; i < 5; i++ {
				mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{
					U: graph.VertexID(100 + i), V: graph.VertexID(i), Weight: 2})
			}
			if err := st.Submit(mut); err != nil {
				t.Fatal(err)
			}
			if err := st.Quiesce(); err != nil {
				t.Fatal(err)
			}
			if err := st.Resize(4); err != nil {
				t.Fatal(err)
			}
			if err := st.Quiesce(); err != nil {
				t.Fatal(err)
			}
			snap := st.Snapshot()
			if snap.K != 4 {
				t.Fatalf("k = %d", snap.K)
			}
			return snap.Labels
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("workers=%d: label counts differ %d vs %d", workers, len(a), len(b))
		}
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("workers=%d: label of vertex %d differs: %d vs %d", workers, v, a[v], b[v])
			}
		}
	}
}

// White-box: the bounded log applies backpressure. The loop is wedged by
// an artificial in-flight restabilization so entries pile up.
func TestStoreLogBackpressure(t *testing.T) {
	s := &Store{
		log:    make(chan logEntry, 2),
		closed: make(chan struct{}),
	}
	m := &graph.Mutation{}
	if err := s.TrySubmit(m); err != nil {
		t.Fatal(err)
	}
	if err := s.TrySubmit(m); err != nil {
		t.Fatal(err)
	}
	if err := s.TrySubmit(m); !errors.Is(err, ErrLogFull) {
		t.Fatalf("TrySubmit on full log = %v, want ErrLogFull", err)
	}
	close(s.closed)
	if err := s.TrySubmit(m); !errors.Is(err, ErrClosed) {
		t.Fatalf("TrySubmit after close = %v, want ErrClosed", err)
	}
	if err := s.Submit(m); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after close = %v, want ErrClosed", err)
	}
	if err := s.Resize(5); !errors.Is(err, ErrClosed) {
		t.Fatalf("Resize after close = %v, want ErrClosed", err)
	}
}

func TestStoreCloseIsIdempotentAndLookupsSurvive(t *testing.T) {
	w, labels := twoClusters(20)
	st, err := New(w, labels, Config{Options: storeOpts(2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Lookup(3); !ok {
		t.Fatal("lookup failed after Close")
	}
	if err := st.Submit(&graph.Mutation{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v", err)
	}
	if err := st.Quiesce(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Quiesce after Close = %v", err)
	}
}

func TestBootstrap(t *testing.T) {
	g := gen.WattsStrogatz(500, 6, 0.2, 3)
	st, err := Bootstrap(g, Config{Options: storeOpts(4, 3)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap := st.Snapshot()
	if len(snap.Labels) != 500 || snap.K != 4 {
		t.Fatalf("bootstrap snapshot %+v", snap)
	}
	if err := metrics.ValidateLabels(snap.Labels, 4); err != nil {
		t.Fatal(err)
	}
}

// Summary is Snapshot without the labels, from the same publication: equal field
// for field at quiescence, and under concurrent growth and a resize its
// version never goes back and its (K, Vertices) is a pair the log's order
// allows a Snapshot to hold.
func TestSummaryMatchesSnapshot(t *testing.T) {
	const n0, before, after, oldK, newK = 600, 10, 10, 4, 6
	st, err := Bootstrap(gen.WattsStrogatz(n0, 8, 0.2, 7), Config{Options: storeOpts(oldK, 7)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	quiescent := func() {
		t.Helper()
		if err := st.Quiesce(); err != nil {
			t.Fatal(err)
		}
		snap, sum := st.Snapshot(), st.Summary()
		if !reflect.DeepEqual(snap.Summary, sum) || sum.Vertices != len(snap.Labels) {
			t.Fatalf("Summary %+v\nSnapshot %+v with %d labels", sum, snap.Summary, len(snap.Labels))
		}
	}
	quiescent()

	// The log orders: `before` one-vertex batches, the resize, `after` more.
	var stop atomic.Bool
	var readers sync.WaitGroup
	defer func() {
		stop.Store(true)
		readers.Wait()
	}()
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for !stop.Load() {
				sum := st.Summary()
				if sum.Version < last {
					t.Errorf("Summary version went back: %d after %d", sum.Version, last)
				}
				last = sum.Version
				lo, hi := n0, n0+before
				if sum.K == newK {
					lo, hi = n0+before, n0+before+after
				}
				if (sum.K != oldK && sum.K != newK) || sum.Vertices < lo || sum.Vertices > hi {
					t.Errorf("Summary holds k=%d with %d vertices: no Snapshot could", sum.K, sum.Vertices)
				}
				if snap := st.Snapshot(); snap.Vertices != len(snap.Labels) {
					t.Errorf("Snapshot says %d vertices and holds %d labels", snap.Vertices, len(snap.Labels))
				}
			}
		}()
	}
	for i := 0; i < before+after; i++ {
		if i == before {
			if err := st.Resize(newK); err != nil {
				t.Fatal(err)
			}
		}
		v := graph.VertexID(n0 + i)
		if err := st.Submit(&graph.Mutation{NewVertices: 1,
			NewEdges: []graph.WeightedEdgeRecord{{U: v, V: v / 2, Weight: 2}}}); err != nil {
			t.Fatal(err)
		}
	}
	quiescent()
	if sum := st.Summary(); sum.K != newK || sum.Vertices != n0+before+after {
		t.Fatalf("settled at k=%d with %d vertices", sum.K, sum.Vertices)
	}
}

// An edge re-added at weight MaxInt32 saturates instead of wrapping, on the
// fast path (add-only batches, the same pair twice in one of them) and on
// the general path (a batch that also appends a vertex): the graph holds
// MaxInt32 on one arc per row, the counters fold the weight the insertion
// actually added, and an exact pass finds no drift. The subtests keep the
// names they had when the store was split into shards=N vertex ranges;
// each now runs the one writer at GOMAXPROCS N.
func TestSaturatedWeightKeepsCountersExact(t *testing.T) {
	const big = math.MaxInt32
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(shards))
			w, labels := twoClusters(20)
			shadow := w.Clone()
			st, err := New(w, labels, Config{
				Options:       storeOpts(2, 3),
				DegradeFactor: 1e9, // no restabilization: the counters alone move
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for i, m := range []*graph.Mutation{
				{NewEdges: []graph.WeightedEdgeRecord{{U: 0, V: 20, Weight: big}, {U: 20, V: 0, Weight: big}}},
				{NewEdges: []graph.WeightedEdgeRecord{{U: 1, V: 21, Weight: big}}},
				{NewEdges: []graph.WeightedEdgeRecord{{U: 21, V: 1, Weight: 7}}},
				{NewVertices: 1, NewEdges: []graph.WeightedEdgeRecord{{U: 0, V: 20, Weight: big}, {U: 40, V: 0, Weight: big}}},
				{NewEdges: []graph.WeightedEdgeRecord{{U: 0, V: 40, Weight: big}, {U: 2, V: 22, Weight: 1}}},
			} {
				if _, err := copyMutation(m).Apply(shadow); err != nil {
					t.Fatalf("batch %d: shadow apply: %v", i, err)
				}
				if err := st.Submit(m); err != nil {
					t.Fatal(err)
				}
				if err := st.Quiesce(); err != nil {
					t.Fatal(err)
				}
				snap := st.Snapshot()
				cross, total, _ := metrics.CutWeights(shadow, snap.Labels, snap.K)
				if snap.CutWeight != cross || snap.TotalWeight != total {
					t.Fatalf("batch %d: incremental (cut=%d,total=%d) != exact (cut=%d,total=%d)",
						i, snap.CutWeight, snap.TotalWeight, cross, total)
				}
			}
			if err := st.control(st.reconcileNow); err != nil {
				t.Fatal(err)
			}
			for _, e := range [][2]graph.VertexID{{0, 20}, {20, 0}, {1, 21}, {0, 40}, {40, 0}} {
				var arcs []graph.WeightedArc
				for _, a := range st.w.Neighbors(e[0]) {
					if a.To == e[1] {
						arcs = append(arcs, a)
					}
				}
				if len(arcs) != 1 || arcs[0].Weight != big {
					t.Fatalf("row %d holds %v to %d, want one arc of weight MaxInt32", e[0], arcs, e[1])
				}
			}
			c := st.Counters()
			if c.CutReconciles.Load() == 0 || c.CutDrift.Load() != 0 || c.BatchesRejected.Load() != 0 {
				t.Fatalf("%d reconciles, drift %d, %d rejected; want ≥ 1, 0, 0",
					c.CutReconciles.Load(), c.CutDrift.Load(), c.BatchesRejected.Load())
			}
		})
	}
}

// A relabel record is input from outside the process: applyRelabel
// refuses one that is neither the next merge nor the next resize, or does
// not fit the store — any of these misfits, a k past core.MaxK among them
// — and changes nothing but Err; the merge and the resize that fit are
// adopted.
func TestApplyRelabelRefusesMisfits(t *testing.T) {
	fits := func() *Delta {
		return &Delta{Epoch: 1, K: 2, N: 40, Runs: []LabelRun{{Start: 3, Labels: []int32{1, 1}}}}
	}
	for _, tc := range []struct {
		name   string
		misfit func(d *Delta)
	}{
		{"fits", func(*Delta) {}},
		{"epoch", func(d *Delta) { d.Epoch = 2 }},
		{"gen", func(d *Delta) { d.Gen = 1 }},
		{"k", func(d *Delta) { d.K = 3 }},
		{"n", func(d *Delta) { d.N = 41 }},
		{"run-out-of-range", func(d *Delta) { d.Runs = []LabelRun{{Start: 39, Labels: []int32{1, 1}}} }},
		{"label-k", func(d *Delta) { d.Runs[0].Labels[1] = 2 }},
		{"resize", func(d *Delta) { d.Epoch, d.Gen, d.K = 0, 1, 3 }},
		{"resize-epoch", func(d *Delta) { d.Gen, d.K = 1, 3 }},
		{"resize-same-k", func(d *Delta) { d.Epoch, d.Gen = 0, 1 }},
		{"resize-max-k", func(d *Delta) { d.Epoch, d.Gen, d.K = 0, 1, core.MaxK+1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, labels := twoClusters(20)
			st, err := New(w, labels, Config{Options: storeOpts(2, 9), DegradeFactor: 1e9})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			st.SetReadOnly(true) // a follower's store
			before := st.Snapshot()
			d := fits()
			tc.misfit(d)
			if err := st.ApplyRecord(wal.Record{Seq: 1, Type: wal.RecordRelabel, Relabel: EncodeDelta(d)}); err != nil {
				t.Fatal(err)
			}
			qerr := st.Quiesce()
			after := st.Snapshot()
			if tc.name == "fits" {
				if qerr != nil || after.Epoch != 1 || after.Labels[3] != 1 || after.Labels[4] != 1 ||
					st.Counters().Restabilizations.Load() != 1 {
					t.Fatalf("fitting relabel: err %v, epoch %d, labels[3:5] %v", qerr, after.Epoch, after.Labels[3:5])
				}
				return
			}
			st.SetReadOnly(false) // promoted: Resize compares against the adopted k
			if tc.name == "resize" {
				ctr := st.Counters()
				if qerr != nil || after.K != 3 || after.Labels[4] != 1 || ctr.ElasticResizes.Load() != 1 || ctr.ElasticSeedMoved.Load() != 2 {
					t.Fatalf("fitting resize: err %v, k=%d, labels[3:5] %v, %d resizes moving %d vertices",
						qerr, after.K, after.Labels[3:5], ctr.ElasticResizes.Load(), ctr.ElasticSeedMoved.Load())
				}
				if err := st.Resize(3); !errors.Is(err, ErrKUnchanged) {
					t.Fatalf("Resize(3) after adopting a resize to 3 = %v, want ErrKUnchanged", err)
				}
				return
			}
			if qerr == nil || qerr != st.Err() {
				t.Fatalf("misfit relabel left Err = %v (Quiesce %v)", st.Err(), qerr)
			}
			if !reflect.DeepEqual(after, before) || st.Counters().Restabilizations.Load() != 0 {
				t.Fatalf("misfit relabel changed the store:\n%+v\nwant\n%+v", after.Summary, before.Summary)
			}
			if err := st.Resize(2); !errors.Is(err, ErrKUnchanged) { // the target k did not move
				t.Fatalf("Resize(2) after a misfit = %v, want ErrKUnchanged", err)
			}
		})
	}
}
