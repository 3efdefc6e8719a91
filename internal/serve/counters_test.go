package serve

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// randomBatch builds a mutation against the shadow graph: mostly edge
// additions (the fast path), sometimes removals of existing edges or
// vertex growth (the general path). Weights derive from the endpoint pair;
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
// sequences — adds (fast path), removals and growth (general path) and
// resizes. Nothing on the serving loop recounts, so nothing silently
// repairs drift; after every quiesce the exact check compares all four
// counters (cross, total, perPart, load), not only the sums. The second
// input lets restabilization fire and submits its batches in runs of 8
// with no quiesce inside a run, so mid-run merges land between coalesced
// add-only runs. The subtests keep the names they had when the store was
// split into shards=N vertex ranges; each now runs the one writer over
// its own history (N seeds the batches).
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
					m := randomBatch(shadow, 77+uint64(shards), step)
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
						t.Fatalf("step %d: the exact check repaired the counters %d times", step, drift)
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
		t.Run(fmt.Sprintf("relabels/shards=%d", shards), func(t *testing.T) { checkRelabelMoves(t, uint64(shards)) })
	}
}

// checkRelabelMoves publishes relabels of every size — one vertex, a few
// percent, past the 1/moveShare share of arcs where the counters are
// counted rather than moved, all of them — and ones that grow k by a label
// or give it back, and checks after each that the counters equal an exact
// recount and the exact check finds no drift. Both ways a relabel lands
// (moved, counted) must run. seed picks the relabels.
func checkRelabelMoves(t *testing.T, seed uint64) {
	const n = 2000
	w := graph.Convert(gen.WattsStrogatz(n, 10, 0.1, 3))
	shadow := w.Clone()
	k := 8
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(v * k / n)
	}
	st, err := New(w, labels, Config{Options: storeOpts(k, 5), DegradeFactor: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	moved, counted := 0, 0
	for step, pct := range []int{0, 1, 5, 10, 12, 20, 50, 100, -1, 3, -2, 8, 100} {
		src := newTestRng(29+seed, step)
		if err := st.control(func() error {
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
			t.Fatalf("step %d (%d%%): the exact check repaired the counters %d times after a relabel", step, pct, drift)
		}
	}
	if moved < 4 || counted < 3 {
		t.Fatalf("%d relabels moved the counters and %d counted them, want both ways", moved, counted)
	}
}

// The exact check guards the maintained partition loads too: after a
// history of growth batches, a corrupted load entry is caught, counted as
// drift once and repaired, and the repaired counters publish.
func TestReconcileRepairsDrift(t *testing.T) {
	w, labels := twoClusters(60)
	st, err := New(w, append([]int32(nil), labels...), Config{Options: storeOpts(2, 13), DegradeFactor: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for step := 0; step < 40; step++ {
		n := st.Summary().Vertices
		m := &graph.Mutation{NewVertices: 3}
		for i := 0; i < 3; i++ {
			m.NewEdges = append(m.NewEdges, graph.WeightedEdgeRecord{
				U: graph.VertexID(n + i), V: graph.VertexID((n + i*17) % n), Weight: 2})
		}
		if err := st.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	reconcile := func(corrupt func()) int64 {
		t.Helper()
		if err := st.control(func() error {
			corrupt()
			return st.reconcileNow()
		}); err != nil {
			t.Fatal(err)
		}
		return st.Counters().CutDrift.Load()
	}
	if drift := reconcile(func() {}); drift != 0 {
		t.Fatalf("the exact check repaired the counters %d times after growth; deltas must be exact", drift)
	}
	before := st.Summary().Version
	if drift := reconcile(func() { st.load[0] += 3 }); drift != 1 {
		t.Fatalf("corrupted load entry counted as drift %d times, want 1", drift)
	}
	if drift := reconcile(func() {}); drift != 1 {
		t.Fatalf("drift %d after the repairing pass, want still 1", drift)
	}
	if st.Summary().Version != before+1 {
		t.Fatalf("version %d after one repair from %d, want the repair published", st.Summary().Version, before)
	}
}

// Point lookups and whole-map reads stay valid and race-clean while the
// one writer applies add-only runs, grows the vertex space, merges
// restabilizations and resizes underneath: a reader never misses a
// vertex a snapshot it read earlier held, and never sees a label outside
// [0, k). Run with -race.
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
		Options:       storeOpts(4, 7),
		DegradeFactor: 1.01, DegradeSlack: 0.0001,
	})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var invalid, missed atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			v := graph.VertexID(r * 31)
			for !stop.Load() {
				snap := st.Snapshot()
				if metrics.ValidateLabels(snap.Labels, snap.K) != nil {
					invalid.Add(1)
				}
				// The vertex count only grows, so the lookup must find v; a
				// resize may land in between, so its label is checked
				// against the largest k the history reaches.
				l, ok := st.Lookup(v % graph.VertexID(len(snap.Labels)))
				if !ok {
					missed.Add(1)
				} else if l < 0 || l >= 6 {
					invalid.Add(1)
				}
				v += 7
			}
		}(r)
	}

	for batch := 0; batch < 300; batch++ {
		mut := gen.GrowthBatch(shadow, 0.01, uint64(500+batch))
		if batch%10 == 9 { // growth: two vertices joining the graph
			n := shadow.NumVertices()
			mut.NewVertices = 2
			for i := 0; i < 2; i++ {
				mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{
					U: graph.VertexID(n + i), V: graph.VertexID((batch * 13) % n), Weight: 2})
			}
		}
		if _, err := copyMutation(mut).Apply(shadow); err != nil {
			t.Fatal(err)
		}
		if err := st.Submit(mut); err != nil {
			t.Fatal(err)
		}
		switch batch {
		case 100:
			if err := st.Resize(6); err != nil {
				t.Fatal(err)
			}
		case 200:
			if err := st.Resize(5); err != nil {
				t.Fatal(err)
			}
		}
		if batch%8 == 7 { // exact checks race the readers too
			if err := st.control(st.reconcileNow); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	if invalid.Load() != 0 || missed.Load() != 0 {
		t.Fatalf("%d invalid labels and %d missed lookups observed", invalid.Load(), missed.Load())
	}
	c := st.Counters()
	if c.VerticesAdded.Load() == 0 || c.ElasticResizes.Load() != 2 || c.Restabilizations.Load() < 2 {
		t.Fatalf("history too quiet: %d vertices added, %d resizes, %d merges",
			c.VerticesAdded.Load(), c.ElasticResizes.Load(), c.Restabilizations.Load())
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
