package pregel

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestSuperstepAllocationBudget pins the zero-allocation message plane:
// once the arenas have grown, a superstep may allocate only the stats
// record and the worker goroutines. The budget is deliberately loose
// enough to absorb goroutine and stats noise but far below the old
// engine's O(n)-allocations-per-superstep behavior.
func TestSuperstepAllocationBudget(t *testing.T) {
	g := graph.New(64, false)
	for i := 0; i < 63; i++ {
		g.AddEdge(VertexID(i), VertexID(i+1))
	}
	const steps = 100
	avg := testing.AllocsPerRun(3, func() {
		e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 2, MaxSupersteps: steps}, &stepCounter{stopAfter: 1 << 30})
		if err := e.SetVertices(buildVertices(g, func(VertexID) int64 { return 0 })); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	perStep := avg / steps
	if perStep > 25 {
		t.Fatalf("superstep loop averaged %.1f allocs/superstep (budget 25); message plane is allocating per superstep", perStep)
	}
}

// TestCombinerAllocationBudget is the same budget on the send-side
// combining path: every vertex sends to every neighbor each superstep and
// a sum combiner is installed, so all traffic flows through the staging
// slots.
func TestCombinerAllocationBudget(t *testing.T) {
	g := graph.New(64, false)
	for i := 0; i < 64; i++ {
		g.AddEdge(VertexID(i), VertexID((i+1)%64))
		g.AddEdge(VertexID(i), VertexID((i+7)%64))
	}
	const steps = 100
	avg := testing.AllocsPerRun(3, func() {
		e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 2, MaxSupersteps: steps}, &stepCounter{stopAfter: 1 << 30})
		e.SetCombiner(func(a, b int64) int64 { return a + b })
		if err := e.SetVertices(buildVertices(g, func(VertexID) int64 { return 0 })); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	perStep := avg / steps
	if perStep > 25 {
		t.Fatalf("combiner loop averaged %.1f allocs/superstep (budget 25)", perStep)
	}
}

// TestStatsDeterministicAcrossRuns verifies that the per-superstep message
// accounting — not just the converged values — is bit-identical across
// repeated runs, at both 1 and 4 workers.
func TestStatsDeterministicAcrossRuns(t *testing.T) {
	run := func(workers int) []SuperstepStats {
		g := graph.New(200, false)
		for i := 0; i < 199; i++ {
			g.AddEdge(VertexID(i), VertexID(i+1))
			g.AddEdge(VertexID(i), VertexID((i*13+5)%200))
		}
		e := NewEngine[int64, VertexID, int64](Config{NumWorkers: workers}, &stepCounter{stopAfter: 6})
		if err := e.SetVertices(buildVertices(g, func(VertexID) int64 { return 0 })); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	for _, workers := range []int{1, 4} {
		a, b := run(workers), run(workers)
		if len(a) != len(b) {
			t.Fatalf("workers=%d: %d vs %d supersteps", workers, len(a), len(b))
		}
		for s := range a {
			if a[s].Active != b[s].Active {
				t.Fatalf("workers=%d superstep %d: active %d vs %d", workers, s, a[s].Active, b[s].Active)
			}
			for wk := range a[s].SentLocal {
				if a[s].SentLocal[wk] != b[s].SentLocal[wk] ||
					a[s].SentRemote[wk] != b[s].SentRemote[wk] ||
					a[s].Received[wk] != b[s].Received[wk] ||
					a[s].ReceivedRemote[wk] != b[s].ReceivedRemote[wk] {
					t.Fatalf("workers=%d superstep %d worker %d: message counts differ between runs", workers, s, wk)
				}
			}
		}
	}
}

// TestSendSideCombiningReducesTraffic pins the combining semantics: on a
// star with all leaves on few workers, the physical message counts must
// reflect post-combining traffic (at most one message per worker per
// destination) while the combined value is preserved.
func TestSendSideCombiningReducesTraffic(t *testing.T) {
	// 9 leaves send value 2 to the center; 2 workers → at most 2 staged
	// messages reach vertex 0 instead of 9.
	g := graph.New(10, true)
	for i := 1; i < 10; i++ {
		g.AddEdge(VertexID(i), 0)
	}
	e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 2}, combinerProg{})
	e.SetCombiner(func(a, b int64) int64 { return a + b })
	if err := e.SetVertices(buildVertices(g, func(VertexID) int64 { return 0 })); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Vertices()[0].Value; got != 18 {
		t.Fatalf("combined value=%d, want 18 (9 leaves × 2)", got)
	}
	// Received is recorded in the superstep whose barrier delivered the
	// messages — the same index as the sends (see TestStatsAccounting).
	st := e.Stats()
	var sent, recv int64
	for wk := range st[0].SentLocal {
		sent += st[0].SentLocal[wk] + st[0].SentRemote[wk]
		recv += st[0].Received[wk]
	}
	if sent != recv {
		t.Fatalf("sent=%d != received=%d", sent, recv)
	}
	if sent > 2 {
		t.Fatalf("sent=%d physical messages, want ≤ 2 (send-side combining must collapse per-worker traffic)", sent)
	}
}

// BenchmarkDelivery times the no-combiner message plane on its own:
// stepCounter sends one message along every arc of WS(200 000, 10, 0.3)
// every superstep over 2 workers, so SendTo, delivery and the compute
// loop's inbox reads are nearly all the work. One op is a pair of
// supersteps, timed after two warm-up supersteps have grown the bins and
// arenas; ns/msg divides the timed span by the messages sent in it.
func BenchmarkDelivery(b *testing.B) {
	const warm = 2
	vs := buildVertices(gen.WattsStrogatz(200_000, 10, 0.3, 7), func(VertexID) int64 { return 0 })
	cfg := Config{NumWorkers: 2, MaxSupersteps: warm + 2*b.N, AfterSuperstep: func(s int) {
		if s == warm-1 {
			b.ReportAllocs()
			b.ResetTimer()
		}
	}}
	e := NewEngine[int64, VertexID, int64](cfg, &stepCounter{stopAfter: 1 << 30})
	if err := e.SetVertices(vs); err != nil {
		b.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	var msgs int64
	for _, st := range e.Stats()[warm:] {
		msgs += st.TotalSent()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
}
