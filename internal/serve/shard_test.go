package serve

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// randomBatch builds a mutation against the shadow graph: mostly edge
// additions (the fast path), sometimes removals of existing edges or
// vertex growth (the barrier path). Weights derive from the endpoint pair;
// a pair added again gains weight, and a removal takes all of it.
func randomBatch(shadow *graph.Weighted, seed uint64, step int) *graph.Mutation {
	src := newTestRng(seed, step)
	m := &graph.Mutation{}
	n := shadow.NumVertices()
	if step%7 == 3 {
		m.NewVertices = 1 + src.Intn(3)
	}
	total := n + m.NewVertices
	for i := 0; i < 4+src.Intn(12); i++ {
		u := graph.VertexID(src.Intn(total))
		v := graph.VertexID(src.Intn(total))
		if u != v {
			m.NewEdges = append(m.NewEdges, graph.WeightedEdgeRecord{
				U: u, V: v, Weight: int32(1 + (u+v)%3)})
		}
	}
	if step%5 == 2 {
		seen := map[graph.Edge]bool{}
		for i := 0; i < 1+src.Intn(3); i++ {
			u := graph.VertexID(src.Intn(n))
			if shadow.Degree(u) == 0 {
				continue
			}
			a := shadow.Neighbors(u)[src.Intn(shadow.Degree(u))]
			key := graph.Edge{From: min(u, a.To), To: max(u, a.To)}
			if seen[key] { // a pair is removed once
				continue
			}
			seen[key] = true
			m.RemovedEdges = append(m.RemovedEdges, graph.Edge{From: u, To: a.To})
		}
	}
	return m
}

func copyMutation(m *graph.Mutation) *graph.Mutation {
	return &graph.Mutation{
		NewVertices:  m.NewVertices,
		NewEdges:     append([]graph.WeightedEdgeRecord(nil), m.NewEdges...),
		RemovedEdges: append([]graph.Edge(nil), m.RemovedEdges...),
	}
}

type testRng struct{ state uint64 }

func newTestRng(seed uint64, step int) *testRng {
	return &testRng{state: seed*0x9e3779b97f4a7c15 + uint64(step)*0xbf58476d1ce4e5b9 + 1}
}

func (r *testRng) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

func (r *testRng) Intn(n int) int { return int(r.next() % uint64(n)) }

// Acceptance criterion: the incremental per-batch cut deltas must stay
// bit-identical to the exact O(E) recompute across randomized mutation
// sequences — adds (fast path), removals and growth (barrier path),
// resizes, at 1, 3 and 4 shards. Nothing on the serving loop recounts, so
// nothing silently repairs drift; after every quiesce the exact check
// compares each shard's four counters (cross, total, perPart, load), not
// only the composed sums. The second input lets restabilization fire and
// submits its batches in runs of 8 with no quiesce inside a run, so
// mid-run merges land between fast-path broadcasts.
func TestIncrementalCutMatchesExact(t *testing.T) {
	for _, in := range []struct {
		prefix         string // of the subtest names
		degrade, slack float64
		run            int // batches submitted between quiesces
	}{
		{"", 1e9, 0, 1}, // isolate the delta path from restab merges
		{"restab/", 1.01, 0.0001, 8},
	} {
		for _, shards := range []int{1, 3, 4} {
			t.Run(fmt.Sprintf("%sshards=%d", in.prefix, shards), func(t *testing.T) {
				w, labels := twoClusters(60)
				shadow := w.Clone()
				st, err := New(w, append([]int32(nil), labels...), Config{
					Options:       storeOpts(2, 11),
					Shards:        shards,
					DegradeFactor: in.degrade,
					DegradeSlack:  in.slack,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()

				k, checks := 2, int64(0)
				for step := 0; step < 80; step++ {
					if step == 40 {
						k = 5
						if err := st.Resize(k); err != nil {
							t.Fatal(err)
						}
						// The forced repair run merges during this quiesce; its
						// relabeling republishes exact counters, and subsequent
						// deltas must keep matching.
						if err := st.Quiesce(); err != nil {
							t.Fatal(err)
						}
					}
					m := randomBatch(shadow, 77, step)
					if _, err := copyMutation(m).Apply(shadow); err != nil {
						t.Fatalf("step %d: shadow apply: %v", step, err)
					}
					if err := st.Submit(m); err != nil {
						t.Fatal(err)
					}
					if (step+1)%in.run != 0 {
						continue
					}
					if err := st.Quiesce(); err != nil {
						t.Fatal(err)
					}
					snap := st.Snapshot()
					if len(snap.Labels) != shadow.NumVertices() {
						t.Fatalf("step %d: %d labels for %d shadow vertices", step, len(snap.Labels), shadow.NumVertices())
					}
					cross, total, perPart := metrics.CutWeights(shadow, snap.Labels, snap.K)
					if snap.CutWeight != cross || snap.TotalWeight != total {
						t.Fatalf("step %d: incremental (cut=%d,total=%d) != exact (cut=%d,total=%d)",
							step, snap.CutWeight, snap.TotalWeight, cross, total)
					}
					for l := range perPart {
						if snap.CutByPartition[l] != perPart[l] {
							t.Fatalf("step %d: CutByPartition[%d] = %d, exact %d",
								step, l, snap.CutByPartition[l], perPart[l])
						}
					}
					if snap.CutRatio != cutRatio(cross, total) {
						t.Fatalf("step %d: ratio %v != %v", step, snap.CutRatio, cutRatio(cross, total))
					}
					if err := st.control(st.reconcileNow); err != nil {
						t.Fatal(err)
					}
					checks++
					if drift := st.Counters().CutDrift.Load(); drift != 0 {
						t.Fatalf("step %d: the exact check repaired %d shards", step, drift)
					}
				}
				c := st.Counters()
				if c.CutReconciles.Load() != checks {
					t.Fatalf("%d exact recounts for %d checks: the serving loop recounted", c.CutReconciles.Load(), checks)
				}
				if in.degrade < 2 && c.Restabilizations.Load() < 2 {
					t.Fatalf("restab input merged %d runs, want the trigger firing", c.Restabilizations.Load())
				}
			})
		}
	}
	for _, shards := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("moves/shards=%d", shards), func(t *testing.T) { checkBoundaryMoves(t, shards) })
		t.Run(fmt.Sprintf("relabels/shards=%d", shards), func(t *testing.T) { checkRelabelMoves(t, shards) })
	}
}

// checkRelabelMoves publishes relabels of every size — one vertex, a few
// percent, past the 1/moveShare share of arcs where the counters are
// counted rather than moved, all of them — and ones that grow k by a label
// or give it back, and checks after each that the counters equal an exact
// recount and the exact check finds no drift. Both ways a relabel lands
// (moved, counted) must run.
func checkRelabelMoves(t *testing.T, shards int) {
	const n = 2000
	w := graph.Convert(gen.WattsStrogatz(n, 10, 0.1, 3))
	shadow := w.Clone()
	k := 8
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(v * k / n)
	}
	st, err := New(w, labels, Config{Options: storeOpts(k, 5), Shards: shards, DegradeFactor: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	moved, counted := 0, 0
	for step, pct := range []int{0, 1, 5, 10, 12, 20, 50, 100, -1, 3, -2, 8, 100} {
		src := newTestRng(31, step)
		if err := st.control(func() error {
			st.withBarrier(func() {
				merged := slices.Clone(st.labels)
				switch pct {
				case -1: // k grows by one label, which three vertices take
					st.k++
					for i := 0; i < 3; i++ {
						merged[src.Intn(n)] = int32(st.k - 1)
					}
				case -2: // the label k-1 is given back
					st.k--
					for v, l := range merged {
						if int(l) == st.k {
							merged[v] = int32(src.Intn(st.k))
						}
					}
				default:
					merged[src.Intn(n)] = int32((int(merged[0]) + 1) % st.k)
					for v := range merged {
						if src.Intn(100) < pct {
							merged[v] = int32((int(merged[v]) + 1 + src.Intn(st.k-1)) % st.k)
						}
					}
				}
				var arcs int64
				for _, run := range labelDiffRuns(st.labels, merged) {
					for i := range run.Labels {
						arcs += int64(st.w.Degree(graph.VertexID(run.Start + i)))
					}
				}
				if moveShare*arcs > 2*st.w.NumEdges() {
					counted++
				} else {
					moved++
				}
				st.relabel(merged)
			})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		snap := st.Snapshot()
		cross, total, perPart := metrics.CutWeights(shadow, snap.Labels, snap.K)
		if snap.CutWeight != cross || snap.TotalWeight != total || !slices.Equal(snap.CutByPartition, perPart) {
			t.Fatalf("step %d (%d%%): relabeled (cut=%d,total=%d,%v) != exact (cut=%d,total=%d,%v)",
				step, pct, snap.CutWeight, snap.TotalWeight, snap.CutByPartition, cross, total, perPart)
		}
		if err := st.control(st.reconcileNow); err != nil {
			t.Fatal(err)
		}
		if drift := st.Counters().CutDrift.Load(); drift != 0 {
			t.Fatalf("step %d (%d%%): the exact check repaired %d shards after a relabel", step, pct, drift)
		}
	}
	if moved < 4 || counted < 3 {
		t.Fatalf("%d relabels moved the counters and %d counted them, want both ways", moved, counted)
	}
}

// checkBoundaryMoves forces a boundary rebalance after every quiesced
// step of a churn history — growth appending into the last shard,
// removals, restabilization merges, a hub whose weighted degree grows
// until two thresholds fall on it at once, and one batch so heavy near the
// end of the vertex space that a boundary jumps past another's old
// position — and checks after each that the bounds are exactly
// cluster.BalancedRanges of the shadow graph, that the counters moved with
// the rows (the exact check finds no drift) and that every lookup answers
// the composed label.
func checkBoundaryMoves(t *testing.T, shards int) {
	w, labels := twoClusters(60)
	shadow := w.Clone()
	st, err := New(w, append([]int32(nil), labels...), Config{
		Options:       storeOpts(2, 17),
		Shards:        shards,
		DegradeFactor: 1.01,
		DegradeSlack:  0.0001,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const hub = 60
	stacked := false // two bounds fell on the hub at once
	crossed := false // a boundary moved past another's old position
	prev := []int{}
	for step := 0; step < 60; step++ {
		m := randomBatch(shadow, 91, step)
		if step >= 10 {
			src := newTestRng(92, step)
			for i := 0; i < 3; i++ {
				if x := graph.VertexID(src.Intn(shadow.NumVertices())); x != hub {
					m.NewEdges = append(m.NewEdges, graph.WeightedEdgeRecord{U: hub, V: x, Weight: 400})
				}
			}
		}
		if step == 30 {
			for x := graph.VertexID(101); x <= 105; x++ {
				m.NewEdges = append(m.NewEdges, graph.WeightedEdgeRecord{U: 100, V: x, Weight: 1 << 20})
			}
		}
		if _, err := copyMutation(m).Apply(shadow); err != nil {
			t.Fatalf("step %d: shadow apply: %v", step, err)
		}
		if err := st.Submit(m); err != nil {
			t.Fatal(err)
		}
		if err := st.Quiesce(); err != nil {
			t.Fatal(err)
		}
		var bounds []int
		if err := st.control(func() error {
			st.rebalance()
			bounds = slices.Clone(st.bounds)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := cluster.BalancedRanges(shadow, shards); !slices.Equal(bounds, want) {
			t.Fatalf("step %d: bounds %v, BalancedRanges %v", step, bounds, want)
		}
		for i := 1; i+1 < len(bounds)-1; i++ {
			stacked = stacked || bounds[i] == hub+1 && bounds[i+1] == hub+2
			crossed = crossed || len(prev) == len(bounds) && (bounds[i] > prev[i+1] || bounds[i+1] < prev[i])
		}
		prev = bounds
		snap := st.Snapshot()
		cross, total, _ := metrics.CutWeights(shadow, snap.Labels, snap.K)
		if snap.CutWeight != cross || snap.TotalWeight != total {
			t.Fatalf("step %d: moved (cut=%d,total=%d) != exact (cut=%d,total=%d)",
				step, snap.CutWeight, snap.TotalWeight, cross, total)
		}
		if err := st.control(st.reconcileNow); err != nil {
			t.Fatal(err)
		}
		if drift := st.Counters().CutDrift.Load(); drift != 0 {
			t.Fatalf("step %d: the exact check repaired %d shards after a boundary move", step, drift)
		}
		for v, l := range snap.Labels {
			if got, ok := st.Lookup(graph.VertexID(v)); !ok || got != l {
				t.Fatalf("step %d: lookup(%d) = %d,%v, want %d", step, v, got, ok, l)
			}
		}
	}
	c := st.Counters()
	if c.ShardRebalances.Load() < 3 || c.Restabilizations.Load() == 0 {
		t.Fatalf("history too quiet: %d boundary moves, %d merges", c.ShardRebalances.Load(), c.Restabilizations.Load())
	}
	if shards > 2 && (!stacked || !crossed) {
		t.Fatalf("the hub carried two thresholds: %v; a boundary crossed another's old position: %v", stacked, crossed)
	}
}

// The periodic pass fires through the ordinary loop at its constant
// cadence: growth skews the vertex space toward the last shard, the
// boundary rebalance moves it back, and lookups and counters stay exact.
func TestReconcileRebalance(t *testing.T) {
	w, labels := twoClusters(60)
	shadow := w.Clone()
	st, err := New(w, append([]int32(nil), labels...), Config{
		Options:       storeOpts(2, 13),
		Shards:        3,
		DegradeFactor: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for step := 0; step < reconcileEvery+8; step++ {
		m := &graph.Mutation{NewVertices: 3}
		n := shadow.NumVertices()
		for i := 0; i < 3; i++ {
			u, v := graph.VertexID(n+i), graph.VertexID((n+i*17)%n)
			m.NewEdges = append(m.NewEdges, graph.WeightedEdgeRecord{U: u, V: v, Weight: 2})
		}
		if _, err := copyMutation(m).Apply(shadow); err != nil {
			t.Fatal(err)
		}
		if err := st.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	var last int64
	if err := st.control(func() error { last = st.lastReconcile; return nil }); err != nil {
		t.Fatal(err)
	}
	if last < reconcileEvery {
		t.Fatalf("last periodic pass at %d resolved batches, want >= %d", last, reconcileEvery)
	}
	c := st.Counters()
	if c.ShardRebalances.Load() == 0 {
		t.Fatal("growth skewed the ranges but boundaries never rebalanced")
	}
	snap := st.Snapshot()
	cross, total, _ := metrics.CutWeights(shadow, snap.Labels, snap.K)
	if snap.CutWeight != cross || snap.TotalWeight != total {
		t.Fatalf("post-rebalance counters (cut=%d,total=%d) != exact (cut=%d,total=%d)",
			snap.CutWeight, snap.TotalWeight, cross, total)
	}
	for v := 0; v < shadow.NumVertices(); v++ {
		if l, ok := st.Lookup(graph.VertexID(v)); !ok || l != snap.Labels[v] {
			t.Fatalf("post-rebalance lookup(%d) = %d,%v want %d,true", v, l, ok, snap.Labels[v])
		}
	}

	// The exact pass guards the maintained partition loads too: a corrupted
	// entry is caught, counted as drift and repaired. (Every batch above took
	// the barrier path, so the quiesced coordinator is parked and nothing
	// reads the shards until the forced pass.)
	forceReconcile := func() int64 {
		t.Helper()
		if err := st.control(st.reconcileNow); err != nil {
			t.Fatal(err)
		}
		return st.Counters().CutDrift.Load()
	}
	if drift := forceReconcile(); drift != 0 {
		t.Fatalf("the exact check repaired %d shards after the rebalance; deltas must be exact", drift)
	}
	st.shards[1].load[0] += 3
	if drift := forceReconcile(); drift != 1 {
		t.Fatalf("corrupted load entry counted as drift %d times, want 1", drift)
	}
	if drift := forceReconcile(); drift != 1 {
		t.Fatalf("drift %d after the repairing pass, want still 1", drift)
	}
}

// A quiesced entry sequence must produce bit-identical labels regardless
// of the shard count: sharding parallelizes mutation application but every
// relabeling event runs under a full barrier on the merged graph.
func TestShardCountDoesNotChangeLabels(t *testing.T) {
	run := func(shards int) []int32 {
		w, labels := twoClusters(50)
		st, err := New(w, append([]int32(nil), labels...), Config{
			Options:       storeOpts(2, 9),
			Shards:        shards,
			DegradeFactor: 1.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for step := 0; step < 6; step++ {
			mut := &graph.Mutation{}
			if step == 2 {
				mut.NewVertices = 5
				for i := 0; i < 5; i++ {
					mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{
						U: graph.VertexID(100 + i), V: graph.VertexID(i), Weight: 2})
				}
			}
			for i := 0; i < 20; i++ {
				mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{
					U: graph.VertexID((i + 13*step) % 50), V: graph.VertexID(50 + (i*3+step)%50), Weight: 2})
			}
			if err := st.Submit(mut); err != nil {
				t.Fatal(err)
			}
			if err := st.Quiesce(); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Resize(4); err != nil {
			t.Fatal(err)
		}
		if err := st.Quiesce(); err != nil {
			t.Fatal(err)
		}
		return st.Snapshot().Labels
	}
	want := run(1)
	for _, shards := range []int{2, 4} {
		got := run(shards)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d labels, want %d", shards, len(got), len(want))
		}
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("shards=%d: label of vertex %d = %d, 1-shard run got %d", shards, v, got[v], want[v])
			}
		}
	}
}

// Concurrent lookups against a sharded store stay valid and race-clean
// while fast-path batches fan out and a restabilization merges underneath.
// Run with -race.
func TestShardedConcurrentLookups(t *testing.T) {
	g := gen.WattsStrogatz(3000, 8, 0.2, 29)
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
	st, err := New(w, res.Labels, Config{
		Options: storeOpts(4, 7), Shards: 4,
		DegradeFactor: 1.01, DegradeSlack: 0.0001,
	})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var invalid atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			v := graph.VertexID(r * 31)
			for !stop.Load() {
				snap := st.Snapshot()
				l, ok := st.Lookup(v % graph.VertexID(len(snap.Labels)))
				if ok && (l < 0 || int(l) >= snap.K) {
					invalid.Add(1)
				}
				v += 7
			}
		}(r)
	}

	for batch := 0; batch < 300; batch++ {
		mut := gen.GrowthBatch(shadow, 0.01, uint64(500+batch))
		if _, err := mut.Apply(shadow); err != nil {
			t.Fatal(err)
		}
		cp := &graph.Mutation{NewEdges: append([]graph.WeightedEdgeRecord(nil), mut.NewEdges...)}
		if err := st.Submit(cp); err != nil {
			t.Fatal(err)
		}
		if batch%8 == 7 { // exact checks race the readers too
			if err := st.control(st.reconcileNow); err != nil {
				t.Fatal(err)
			}
		}
		if st.Counters().Restabilizations.Load() >= 2 {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if invalid.Load() != 0 {
		t.Fatalf("%d invalid lookups observed", invalid.Load())
	}
	c := st.Counters()
	if c.ShardBatches.Load() < c.BatchesApplied.Load() {
		t.Fatalf("fast path never fanned out: sub=%d batches=%d", c.ShardBatches.Load(), c.BatchesApplied.Load())
	}
	if c.CutDrift.Load() != 0 {
		t.Fatalf("cut drift under concurrency: %d", c.CutDrift.Load())
	}
	snap := st.Snapshot()
	if err := metrics.ValidateLabels(snap.Labels, snap.K); err != nil {
		t.Fatal(err)
	}
	cross, total, _ := metrics.CutWeights(shadow, snap.Labels, snap.K)
	if snap.CutWeight != cross || snap.TotalWeight != total {
		t.Fatalf("counters after churn (cut=%d,total=%d) != exact (cut=%d,total=%d)",
			snap.CutWeight, snap.TotalWeight, cross, total)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// Config validation for the new sharding knobs.
func TestShardConfigValidation(t *testing.T) {
	w, labels := twoClusters(10)
	if _, err := New(w.Clone(), append([]int32(nil), labels...), Config{Options: storeOpts(2, 1), Shards: -1}); err == nil {
		t.Fatal("negative Shards accepted")
	}
	// More shards than vertices clamps rather than fails.
	st, err := New(w.Clone(), append([]int32(nil), labels...), Config{Options: storeOpts(2, 1), Shards: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Snapshot().Shards; got != 20 {
		t.Fatalf("clamped shard count %d, want 20", got)
	}
}
