package pregel

import (
	"testing"

	"repro/internal/graph"
)

// selfSender sends a message to itself each superstep.
type selfSender struct{}

func (selfSender) Compute(ctx *Context[int64, VertexID, int64], v *Vertex[int64, VertexID], msgs []int64) {
	for _, m := range msgs {
		v.Value += m
	}
	if ctx.Superstep() < 3 {
		ctx.SendTo(v.ID, 1)
	}
	v.VoteToHalt()
}

func TestSelfMessages(t *testing.T) {
	e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 2}, selfSender{})
	vs := make([]Vertex[int64, VertexID], 4)
	for i := range vs {
		vs[i].ID = VertexID(i)
	}
	if err := e.SetVertices(vs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range e.Vertices() {
		if v.Value != 3 {
			t.Fatalf("vertex %d accumulated %d self-messages, want 3", i, v.Value)
		}
	}
	// Self-messages are local.
	for _, st := range e.Stats() {
		for wk := range st.SentRemote {
			if st.SentRemote[wk] != 0 {
				t.Fatal("self message counted as remote")
			}
		}
	}
}

func TestMoreWorkersThanVertices(t *testing.T) {
	e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 16}, selfSender{})
	vs := make([]Vertex[int64, VertexID], 3)
	for i := range vs {
		vs[i].ID = VertexID(i)
	}
	if err := e.SetVertices(vs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, v := range e.Vertices() {
		if v.Value != 3 {
			t.Fatal("wrong result with surplus workers")
		}
	}
}

func TestPlacementOutOfRangeNormalized(t *testing.T) {
	// A placement returning out-of-range workers must be wrapped, not
	// crash.
	e := NewEngine[int64, VertexID, int64](Config{
		NumWorkers: 2,
		Placement:  func(v VertexID) int { return int(v) - 100 },
	}, selfSender{})
	vs := make([]Vertex[int64, VertexID], 5)
	for i := range vs {
		vs[i].ID = VertexID(i)
	}
	if err := e.SetVertices(vs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleVertexGraph(t *testing.T) {
	e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 4}, selfSender{})
	if err := e.SetVertices([]Vertex[int64, VertexID]{{ID: 0}}); err != nil {
		t.Fatal(err)
	}
	steps, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if steps == 0 || e.Vertices()[0].Value != 3 {
		t.Fatalf("single vertex: steps=%d value=%d", steps, e.Vertices()[0].Value)
	}
}

// reactivator tests halted-vertex reactivation by incoming messages.
type reactivator struct{}

func (reactivator) Compute(ctx *Context[int64, VertexID, int64], v *Vertex[int64, VertexID], msgs []int64) {
	v.Value++
	if ctx.Superstep() == 0 && v.ID == 0 {
		// Vertex 0 pokes vertex 1 three supersteps from now... it can only
		// send for next superstep, so chain: poke 1, which pokes 2.
		ctx.SendTo(1, 1)
	}
	if len(msgs) > 0 && v.ID < VertexID(ctx.NumVertices()-1) {
		ctx.SendTo(v.ID+1, 1)
	}
	v.VoteToHalt()
}

// TestReactivation: every vertex votes to halt in every superstep, so from
// superstep 1 on the only deliveries go to halted vertices, and each must
// still make the next superstep run and wake its vertex — on the arena
// path and on the combiner path, with the chain crossing workers.
func TestReactivation(t *testing.T) {
	for _, combine := range []bool{false, true} {
		e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 2}, reactivator{})
		if combine {
			e.SetCombiner(func(a, b int64) int64 { return a + b })
		}
		vs := make([]Vertex[int64, VertexID], 4)
		for i := range vs {
			vs[i].ID = VertexID(i)
		}
		if err := e.SetVertices(vs); err != nil {
			t.Fatal(err)
		}
		steps, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Everyone computes at superstep 0; then the poke chain wakes 1, 2, 3
		// one at a time, and the superstep after 3's finds no work.
		want := []int64{1, 2, 2, 2}
		for i, v := range e.Vertices() {
			if v.Value != want[i] {
				t.Fatalf("combiner %v: vertex %d computed %d times, want %d", combine, i, v.Value, want[i])
			}
			if !v.halted {
				t.Fatalf("combiner %v: vertex %d not halted at the end", combine, i)
			}
		}
		if steps != 4 {
			t.Fatalf("combiner %v: %d supersteps, want 4", combine, steps)
		}
		for s, st := range e.Stats() {
			if wantActive := []int64{4, 1, 1, 1}[s]; st.Active != wantActive {
				t.Fatalf("combiner %v: superstep %d computed %d vertices, want %d", combine, s, st.Active, wantActive)
			}
		}
	}
}

// Property-style invariant: messages sent at superstep s equal messages
// received at superstep s+1.
func TestSentEqualsReceivedInvariant(t *testing.T) {
	g := graph.New(100, false)
	for i := 0; i < 99; i++ {
		g.AddEdge(VertexID(i), VertexID(i+1))
	}
	e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 3}, &stepCounter{stopAfter: 5})
	if err := e.SetVertices(buildVertices(g, func(VertexID) int64 { return 0 })); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	for s := 0; s+1 < len(st); s++ {
		var sent, recv, recvRemote, sentRemote int64
		for wk := range st[s].SentLocal {
			sent += st[s].SentLocal[wk] + st[s].SentRemote[wk]
			sentRemote += st[s].SentRemote[wk]
		}
		for wk := range st[s+1].Received {
			recv += st[s+1].Received[wk]
			recvRemote += st[s+1].ReceivedRemote[wk]
		}
		if sent != recv {
			t.Fatalf("superstep %d: sent %d != received %d", s, sent, recv)
		}
		if sentRemote != recvRemote {
			t.Fatalf("superstep %d: sent remote %d != received remote %d", s, sentRemote, recvRemote)
		}
	}
}
