package pregel

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// maxProg is the classic Pregel example: propagate the maximum vertex value
// through the graph. Exercises vote-to-halt and reactivation.
type maxProg struct{}

func (maxProg) Compute(ctx *Context[int64, VertexID, int64], v *Vertex[int64, VertexID], msgs []int64) {
	changed := ctx.Superstep() == 0
	for _, m := range msgs {
		if m > v.Value {
			v.Value = m
			changed = true
		}
	}
	if changed {
		for _, to := range v.Edges {
			ctx.SendTo(to, v.Value)
		}
	}
	v.halted = true
}

// buildVertices hands the engine g's rows in place, as bare targets.
func buildVertices(g *graph.Graph, val func(VertexID) int64) []Vertex[int64, VertexID] {
	vs := make([]Vertex[int64, VertexID], g.NumVertices())
	for i := range vs {
		vs[i].ID = VertexID(i)
		vs[i].Value = val(VertexID(i))
		vs[i].Edges = g.Neighbors(VertexID(i))
	}
	return vs
}

func TestMaxPropagation(t *testing.T) {
	g := gen.WattsStrogatz(500, 6, 0.2, 1)
	// Symmetrize so the max can reach everyone.
	und := graph.New(500, false)
	g.Edges(func(u, v VertexID) { und.AddEdge(u, v) })
	e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 4}, maxProg{})
	if err := e.SetVertices(buildVertices(und, func(v VertexID) int64 { return int64(v) })); err != nil {
		t.Fatal(err)
	}
	steps, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if steps == 0 {
		t.Fatal("no supersteps ran")
	}
	for i, v := range e.Vertices() {
		if v.Value != 499 {
			t.Fatalf("vertex %d converged to %d, want 499", i, v.Value)
		}
	}
}

func TestRunWithoutVertices(t *testing.T) {
	e := NewEngine[int64, VertexID, int64](Config{}, maxProg{})
	if _, err := e.Run(); err != ErrNoVertices {
		t.Fatalf("err=%v, want ErrNoVertices", err)
	}
}

func TestSetVerticesRejectsSparseIDs(t *testing.T) {
	e := NewEngine[int64, VertexID, int64](Config{}, maxProg{})
	vs := []Vertex[int64, VertexID]{{ID: 5}}
	if err := e.SetVertices(vs); err == nil {
		t.Fatal("sparse IDs accepted")
	}
}

// stepCounter runs a fixed number of supersteps using master halting.
type stepCounter struct{ stopAfter int }

func (p *stepCounter) Compute(ctx *Context[int64, VertexID, int64], v *Vertex[int64, VertexID], msgs []int64) {
	v.Value++
	for _, to := range v.Edges {
		ctx.SendTo(to, 1)
	}
}

func (p *stepCounter) MasterCompute(m *Master) {
	if m.Superstep() == p.stopAfter-1 {
		m.Halt()
	}
}

func TestMasterHalt(t *testing.T) {
	g := graph.New(4, false)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 2}, &stepCounter{stopAfter: 7})
	if err := e.SetVertices(buildVertices(g, func(VertexID) int64 { return 0 })); err != nil {
		t.Fatal(err)
	}
	steps, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if steps != 7 {
		t.Fatalf("ran %d supersteps, want 7", steps)
	}
	for _, v := range e.Vertices() {
		if v.Value != 7 {
			t.Fatalf("vertex computed %d times, want 7", v.Value)
		}
	}
}

func TestMaxSuperstepsBound(t *testing.T) {
	g := graph.New(2, false)
	g.AddEdge(0, 1)
	e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 1, MaxSupersteps: 3}, &stepCounter{stopAfter: 1 << 30})
	if err := e.SetVertices(buildVertices(g, func(VertexID) int64 { return 0 })); err != nil {
		t.Fatal(err)
	}
	steps, _ := e.Run()
	if steps != 3 {
		t.Fatalf("ran %d, want 3 (MaxSupersteps)", steps)
	}
}

// aggProg exercises sum/min/max and persistent aggregators.
type aggProg struct{ sum, min, max, persist Aggregator }

func (p *aggProg) Compute(ctx *Context[int64, VertexID, int64], v *Vertex[int64, VertexID], msgs []int64) {
	ctx.Aggregate(p.sum, 0, 1)
	ctx.Aggregate(p.min, 0, float64(v.ID))
	ctx.Aggregate(p.max, 0, float64(v.ID))
	ctx.Aggregate(p.persist, 0, 1)
	if ctx.Superstep() == 2 {
		v.halted = true
	}
}

// newAggEngine registers aggProg's four aggregators, "sum" with sumSize
// elements.
func newAggEngine(workers, sumSize int) *Engine[int64, VertexID, int64] {
	p := &aggProg{}
	e := NewEngine[int64, VertexID, int64](Config{NumWorkers: workers}, p)
	p.sum = e.RegisterAggregator("sum", AggSum, sumSize, false)
	p.min = e.RegisterAggregator("min", AggMin, 1, false)
	p.max = e.RegisterAggregator("max", AggMax, 1, false)
	p.persist = e.RegisterAggregator("persist", AggSum, 1, true)
	return e
}

func TestAggregators(t *testing.T) {
	g := graph.New(10, false)
	e := newAggEngine(3, 1)
	if err := e.SetVertices(buildVertices(g, func(VertexID) int64 { return 0 })); err != nil {
		t.Fatal(err)
	}
	steps, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if steps != 3 {
		t.Fatalf("steps=%d, want 3", steps)
	}
	if got := e.AggregatedValue("sum")[0]; got != 10 {
		t.Fatalf("sum=%v, want 10 (last superstep)", got)
	}
	if got := e.AggregatedValue("min")[0]; got != 0 {
		t.Fatalf("min=%v, want 0", got)
	}
	if got := e.AggregatedValue("max")[0]; got != 9 {
		t.Fatalf("max=%v, want 9", got)
	}
	if got := e.AggregatedValue("persist")[0]; got != 30 {
		t.Fatalf("persist=%v, want 30 (10 vertices × 3 supersteps)", got)
	}
}

func TestRegisterAggregatorValidation(t *testing.T) {
	e := NewEngine[int64, VertexID, int64](Config{}, &aggProg{})
	e.RegisterAggregator("a", AggSum, 1, false)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate aggregator accepted")
			}
		}()
		e.RegisterAggregator("a", AggSum, 1, false)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("persistent min accepted")
			}
		}()
		e.RegisterAggregator("b", AggMin, 1, true)
	}()
}

// combinerProg sums incoming messages into the vertex value.
type combinerProg struct{}

func (combinerProg) Compute(ctx *Context[int64, VertexID, int64], v *Vertex[int64, VertexID], msgs []int64) {
	if ctx.Superstep() == 0 {
		for _, to := range v.Edges {
			ctx.SendTo(to, 2)
		}
		return
	}
	if len(msgs) > 1 {
		// With a sum combiner installed, at most one message may arrive.
		v.Value = -1
	} else {
		for _, m := range msgs {
			v.Value += m
		}
	}
	v.halted = true
}

func TestCombiner(t *testing.T) {
	// Star: all leaves send to center; combiner must merge into one message.
	g := graph.New(6, true)
	for i := 1; i < 6; i++ {
		g.AddEdge(VertexID(i), 0)
	}
	e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 3}, combinerProg{})
	e.SetCombiner(func(a, b int64) int64 { return a + b })
	if err := e.SetVertices(buildVertices(g, func(VertexID) int64 { return 0 })); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Vertices()[0].Value; got != 10 {
		t.Fatalf("combined value=%d, want 10 (5 leaves × 2)", got)
	}
}

// workerStateProg verifies per-worker shared state identity.
type workerStateProg struct{}

type wsCounter struct{ n int }

func (workerStateProg) InitWorker(workerID, numWorkers int) any { return &wsCounter{} }

func (workerStateProg) Compute(ctx *Context[int64, VertexID, int64], v *Vertex[int64, VertexID], msgs []int64) {
	ws := ctx.WorkerState().(*wsCounter)
	ws.n++
	v.Value = int64(ws.n) // order within a worker is deterministic
	v.halted = true
}

func TestWorkerState(t *testing.T) {
	g := graph.New(8, false)
	e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 2}, workerStateProg{})
	if err := e.SetVertices(buildVertices(g, func(VertexID) int64 { return 0 })); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Default placement is contiguous: worker 0 gets 0..3, worker 1 gets 4..7.
	// Within each worker the shared counter increments 1..4.
	for i, v := range e.Vertices() {
		want := int64(i%4 + 1)
		if v.Value != want {
			t.Fatalf("vertex %d saw counter %d, want %d", i, v.Value, want)
		}
	}
}

func TestPlacementCustom(t *testing.T) {
	g := graph.New(10, false)
	e := NewEngine[int64, VertexID, int64](Config{
		NumWorkers: 2,
		Placement:  func(v VertexID) int { return int(v) % 2 },
	}, workerStateProg{})
	if err := e.SetVertices(buildVertices(g, func(VertexID) int64 { return 0 })); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.place[3] != 1 || e.place[4] != 0 {
		t.Fatal("custom placement not respected")
	}
}

func TestStatsAccounting(t *testing.T) {
	// Two vertices on different workers exchanging one message each way.
	g := graph.New(2, false)
	g.AddEdge(0, 1)
	e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 2, MaxSupersteps: 2}, &stepCounter{stopAfter: 2})
	if err := e.SetVertices(buildVertices(g, func(VertexID) int64 { return 0 })); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if len(st) != 2 {
		t.Fatalf("stats for %d supersteps, want 2", len(st))
	}
	if st[0].Active != 2 {
		t.Fatalf("superstep 0 active=%d, want 2", st[0].Active)
	}
	// Each vertex sends one remote message (vertices on different workers).
	var rem int64
	for _, r := range st[0].SentRemote {
		rem += r
	}
	if rem != 2 {
		t.Fatalf("remote msgs=%d, want 2", rem)
	}
	if st[0].TotalSent() != 2 {
		t.Fatalf("total sent=%d, want 2", st[0].TotalSent())
	}
	var recv int64
	for _, r := range st[1].Received {
		recv += r
	}
	if recv != 2 {
		t.Fatalf("received=%d, want 2", recv)
	}
}

func TestLocalVsRemoteAccounting(t *testing.T) {
	// Both vertices on one worker → messages are local.
	g := graph.New(2, false)
	g.AddEdge(0, 1)
	e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 1, MaxSupersteps: 1}, &stepCounter{stopAfter: 1})
	if err := e.SetVertices(buildVertices(g, func(VertexID) int64 { return 0 })); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()[0]
	if st.SentLocal[0] != 2 || st.SentRemote[0] != 0 {
		t.Fatalf("local=%d remote=%d, want 2/0", st.SentLocal[0], st.SentRemote[0])
	}
}

// Determinism: identical worker counts produce identical results.
func TestEngineDeterminism(t *testing.T) {
	run := func() []int64 {
		g := gen.WattsStrogatz(300, 4, 0.3, 2)
		und := graph.New(300, false)
		g.Edges(func(u, v VertexID) { und.AddEdge(u, v) })
		e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 4}, maxProg{})
		if err := e.SetVertices(buildVertices(und, func(v VertexID) int64 { return int64(v * 7 % 301) })); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		out := make([]int64, 300)
		for i, v := range e.Vertices() {
			out[i] = v.Value
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at vertex %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Result invariance across worker counts for a worker-independent program.
func TestWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []int64 {
		g := gen.WattsStrogatz(200, 4, 0.3, 3)
		und := graph.New(200, false)
		g.Edges(func(u, v VertexID) { und.AddEdge(u, v) })
		e := NewEngine[int64, VertexID, int64](Config{NumWorkers: workers}, maxProg{})
		if err := e.SetVertices(buildVertices(und, func(v VertexID) int64 { return int64(v) })); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		out := make([]int64, 200)
		for i, v := range e.Vertices() {
			out[i] = v.Value
		}
		return out
	}
	a, b := run(1), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("worker-count dependent result at vertex %d", i)
		}
	}
}

// Edge mutation: a program that owns its vertices' arcs may append to them
// during compute — here a vertex adds the reverse of each arc it hears
// about, with a weighted arc type the program chose.
type edgeAdder struct{}

func (edgeAdder) Compute(ctx *Context[int64, graph.WeightedArc, int64], v *Vertex[int64, graph.WeightedArc], msgs []int64) {
	if ctx.Superstep() == 0 {
		for _, a := range v.Edges {
			ctx.SendTo(a.To, int64(v.ID))
		}
		return
	}
	for _, src := range msgs {
		found := false
		for _, a := range v.Edges {
			if a.To == VertexID(src) {
				found = true
			}
		}
		if !found {
			v.Edges = append(v.Edges, graph.WeightedArc{To: VertexID(src), Weight: 1})
		}
	}
	v.halted = true
}

func TestEdgeMutation(t *testing.T) {
	g := graph.New(3, true)
	g.AddEdge(0, 1) // one-way: vertex 1 should discover reverse edge to 0
	vs := make([]Vertex[int64, graph.WeightedArc], 3)
	for i := range vs {
		vs[i].ID = VertexID(i)
		for _, to := range g.Neighbors(VertexID(i)) {
			vs[i].Edges = append(vs[i].Edges, graph.WeightedArc{To: to, Weight: 1})
		}
	}
	e := NewEngine[int64, graph.WeightedArc, int64](Config{NumWorkers: 2}, edgeAdder{})
	if err := e.SetVertices(vs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	v1 := e.Vertices()[1]
	if len(v1.Edges) != 1 || v1.Edges[0] != (graph.WeightedArc{To: 0, Weight: 1}) {
		t.Fatalf("vertex 1 edges=%v, want reverse edge to 0", v1.Edges)
	}
}

func TestAggregatedVectorCopy(t *testing.T) {
	e := newAggEngine(1, 3)
	g := graph.New(2, false)
	if err := e.SetVertices(buildVertices(g, func(VertexID) int64 { return 0 })); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	v := e.AggregatedValue("sum")
	v[0] = 999
	if e.AggregatedValue("sum")[0] == 999 {
		t.Fatal("AggregatedValue returned live slice")
	}
}
