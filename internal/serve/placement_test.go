package serve

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// placementBatch draws one batch of the mixed history: half are add-only
// (the fast path) and one in eight is empty; the rest append 1–3 vertices
// with 0–5 edges each, remove 1–3 existing edges, or do all three. Weights
// are 1–2 and derive from the pair; a pair added again gains weight, and a
// removal takes all of it.
func placementBatch(shadow *graph.Weighted, src *testRng) *graph.Mutation {
	n := shadow.NumVertices()
	m := &graph.Mutation{}
	add := func(u, v int) {
		if u != v {
			m.NewEdges = append(m.NewEdges, graph.WeightedEdgeRecord{
				U: graph.VertexID(u), V: graph.VertexID(v), Weight: int32(1 + (u+v)%2)})
		}
	}
	kind := src.Intn(8)
	if kind&1 == 0 || kind == 7 {
		for i := 2 + src.Intn(8); i > 0; i-- {
			add(src.Intn(n), src.Intn(n))
		}
	}
	if kind == 1 || kind == 7 {
		m.NewVertices = 1 + src.Intn(3)
		for v := n; v < n+m.NewVertices; v++ {
			for i := src.Intn(6); i > 0; i-- {
				add(v, src.Intn(n+m.NewVertices))
			}
		}
	}
	if kind == 3 || kind == 7 {
		seen := map[graph.Edge]bool{}
		for i := 1 + src.Intn(3); i > 0; i-- {
			u := graph.VertexID(src.Intn(n))
			if shadow.Degree(u) == 0 {
				continue
			}
			to := shadow.Neighbors(u)[src.Intn(shadow.Degree(u))].To
			if key := (graph.Edge{From: min(u, to), To: max(u, to)}); !seen[key] {
				seen[key] = true
				m.RemovedEdges = append(m.RemovedEdges, graph.Edge{From: u, To: to})
			}
		}
	}
	return m
}

// An appended vertex is placed from the maintained loads, and must land
// where the O(E) scan (core.SeedNewVertices) puts it. Over a mixed,
// quiesced-every-batch history with a Resize and restabilizations firing:
// the load counters always equal a scan of the live graph; every appended vertex enters the change feed with the
// label SeedNewVertices computes on a sequentially maintained shadow graph
// from the labels the feed held just before; and the final labels hash to
// a recorded value, not merely a self-consistent one. The value was
// 0x2cd250b9fc14bc33 from a8d944e, when the store still scanned, until the
// commit after 64e4504 moved the LPA's histogram bars to label order,
// which draws the restabilizations' ties in another order; then
// 0xc5d0892f0d1cfa14 until the commit after 5fbc4f6 made graph.Weighted
// simple: the history removes pairs it added more than once (step 110 on
// purpose), which now takes the merged edge, where it took one of the
// parallel arcs, so the restabilizations see other graphs; then
// 0x59a3991e12213f94 until the commit after 182a728 made every draw of a
// run a pure function of (seed, superstep, vertex, site) instead of a
// position in a worker's stream, which draws the restabilizations'
// labels anew. The subtests
// keep the names they had when the store was split into shards=N vertex
// ranges; each now runs the one writer at GOMAXPROCS N, which must not
// move the hash.
func TestAppendedVertexPlacementMatchesScan(t *testing.T) {
	const wantHash = 0x5f354ae837307644
	for _, shards := range []int{1, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(shards))
			w, labels := twoClusters(60)
			for v := range labels {
				labels[v] = int32(v / 40)
			}
			shadow := w.Clone()
			st, err := New(w, labels, Config{
				Options:       storeOpts(3, 21),
				DegradeFactor: 1.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()

			var feed []int32 // labels rebuilt from the change feed
			var cursor uint64
			k, placed := 3, 0
			settle := func(step int) {
				t.Helper()
				if err := st.Quiesce(); err != nil {
					t.Fatal(err)
				}
				fds, _ := st.FramedDeltasSince(cursor, 0)
				for _, fd := range fds {
					d := fd.Delta
					oldN := len(feed)
					var want []int32
					if oldN > 0 && d.N > oldN {
						want = append(slices.Clone(feed), make([]int32, d.N-oldN)...)
						core.SeedNewVertices(shadow, want, oldN, k)
					}
					if feed, err = d.Apply(feed); err != nil {
						t.Fatal(err)
					}
					if want != nil {
						if !slices.Equal(feed[oldN:], want[oldN:]) {
							t.Fatalf("step %d: appended vertices placed on %v, the scan places them on %v", step, feed[oldN:], want[oldN:])
						}
						placed += d.N - oldN
					}
					if d.K != 0 {
						k = d.K
					}
					cursor = d.Seq
				}
				snap := st.Snapshot()
				if !slices.Equal(snap.Labels, feed) || snap.K != k {
					t.Fatalf("step %d: feed-rebuilt labels differ from the snapshot", step)
				}
				// Quiesced: nothing touches the counters.
				if scan := metrics.Loads(shadow, feed, k); !slices.Equal(st.load, scan) {
					t.Fatalf("step %d: the loads are %v, a scan gives %v", step, st.load, scan)
				}
			}
			submit := func(step int, m *graph.Mutation) {
				t.Helper()
				if _, err := copyMutation(m).Apply(shadow); err != nil {
					t.Fatalf("step %d: shadow apply: %v", step, err)
				}
				if err := st.Submit(m); err != nil {
					t.Fatal(err)
				}
				settle(step)
			}

			settle(-1)
			src := newTestRng(5, 0)
			for step := 0; step < 160; step++ {
				switch step {
				case 70:
					if err := st.Resize(5); err != nil {
						t.Fatal(err)
					}
					settle(step)
				case 110:
					// {3,4} is added twice, at weights 1 and 2, in one batch;
					// the next removes the merged edge and appends two
					// vertices, placed from loads that lose all its weight.
					submit(step, &graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{{U: 3, V: 4, Weight: 1}, {U: 4, V: 3, Weight: 2}}})
					submit(step, &graph.Mutation{
						NewVertices:  2,
						NewEdges:     []graph.WeightedEdgeRecord{{U: graph.VertexID(shadow.NumVertices()), V: 9, Weight: 2}},
						RemovedEdges: []graph.Edge{{From: 4, To: 3}},
					})
				}
				submit(step, placementBatch(shadow, src))
				if step%16 == 15 { // the exact pass compares load too
					if err := st.control(st.reconcileNow); err != nil {
						t.Fatal(err)
					}
				}
			}

			c := st.Counters()
			if c.BatchesRejected.Load() != 0 || c.CutDrift.Load() != 0 {
				t.Fatalf("rejected %d batches, drift %d; want 0, 0", c.BatchesRejected.Load(), c.CutDrift.Load())
			}
			if placed < 60 || c.Restabilizations.Load() < 2 || c.CutReconciles.Load() == 0 {
				t.Fatalf("history too quiet: %d vertices placed, %d restabilizations, %d reconciles",
					placed, c.Restabilizations.Load(), c.CutReconciles.Load())
			}
			h := fnv.New64a()
			for _, l := range feed {
				h.Write([]byte{byte(l)})
			}
			if got := h.Sum64(); got != wantHash {
				t.Fatalf("final labels hash to %#x, the recorded run of this history gave %#x", got, uint64(wantHash))
			}
		})
	}
}
