package pregel

import (
	"bytes"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// ckptProg counts supersteps in each vertex and checkpoints via the master
// at a chosen superstep.
type ckptProg struct {
	stopAfter int
	ckptAt    int
	buf       *bytes.Buffer
	engine    *Engine[int64, struct{}, int64]
	ckptErr   error
	steps     Aggregator
}

func (p *ckptProg) Compute(ctx *Context[int64, struct{}, int64], v *Vertex[int64, struct{}], msgs []int64) {
	for _, m := range msgs {
		v.Value += m
	}
	for _, e := range v.Edges {
		ctx.SendTo(e.To, 1)
	}
	ctx.Aggregate(p.steps, 0, 1)
}

func (p *ckptProg) MasterCompute(m *Master) {
	if m.Superstep() == p.ckptAt && p.buf != nil {
		p.ckptErr = p.engine.Checkpoint(p.buf)
	}
	if m.Superstep() == p.stopAfter-1 {
		m.Halt()
	}
}

func buildCkptVertices(n int) []Vertex[int64, struct{}] {
	g := gen.WattsStrogatz(n, 4, 0.3, 11)
	und := graph.New(n, false)
	g.Edges(func(u, v VertexID) { und.AddEdge(u, v) })
	vs := make([]Vertex[int64, struct{}], n)
	for i := range vs {
		vs[i].ID = VertexID(i)
		for _, to := range und.Neighbors(VertexID(i)) {
			vs[i].Edges = append(vs[i].Edges, Edge[struct{}]{To: to})
		}
	}
	return vs
}

func TestCheckpointRestoreMatchesUninterrupted(t *testing.T) {
	const n, stopAfter, ckptAt = 200, 12, 5
	cfg := Config{NumWorkers: 3, Seed: 7}

	// Uninterrupted run.
	ref := &ckptProg{stopAfter: stopAfter}
	refEng := NewEngine[int64, struct{}, int64](cfg, ref)
	ref.steps = refEng.RegisterAggregator("steps", AggSum, 1, false)
	if err := refEng.SetVertices(buildCkptVertices(n)); err != nil {
		t.Fatal(err)
	}
	if _, err := refEng.Run(); err != nil {
		t.Fatal(err)
	}

	// Run that checkpoints at superstep ckptAt, then "fails".
	var buf bytes.Buffer
	first := &ckptProg{stopAfter: ckptAt + 1, ckptAt: ckptAt, buf: &buf}
	firstEng := NewEngine[int64, struct{}, int64](cfg, first)
	first.engine = firstEng
	first.steps = firstEng.RegisterAggregator("steps", AggSum, 1, false)
	if err := firstEng.SetVertices(buildCkptVertices(n)); err != nil {
		t.Fatal(err)
	}
	if _, err := firstEng.Run(); err != nil {
		t.Fatal(err)
	}
	if first.ckptErr != nil {
		t.Fatal(first.ckptErr)
	}

	// Recovery: fresh engine, restore, resume to completion.
	rec := &ckptProg{stopAfter: stopAfter}
	recEng := NewEngine[int64, struct{}, int64](cfg, rec)
	rec.engine = recEng
	rec.steps = recEng.RegisterAggregator("steps", AggSum, 1, false)
	if err := recEng.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	steps, err := recEng.ResumeRun()
	if err != nil {
		t.Fatal(err)
	}
	if steps != stopAfter {
		t.Fatalf("resumed run ended at superstep %d, want %d", steps, stopAfter)
	}
	for i := range refEng.Vertices() {
		if refEng.Vertices()[i].Value != recEng.Vertices()[i].Value {
			t.Fatalf("vertex %d: recovered value %d != reference %d",
				i, recEng.Vertices()[i].Value, refEng.Vertices()[i].Value)
		}
	}
	if got, want := recEng.AggregatedValue("steps")[0], refEng.AggregatedValue("steps")[0]; got != want {
		t.Fatalf("aggregator after recovery %v != %v", got, want)
	}
}

func TestCheckpointAfterRun(t *testing.T) {
	// Checkpointing a finished run and restoring it preserves the values.
	prog := &ckptProg{stopAfter: 4}
	eng := NewEngine[int64, struct{}, int64](Config{NumWorkers: 2}, prog)
	prog.steps = eng.RegisterAggregator("steps", AggSum, 1, false)
	if err := eng.SetVertices(buildCkptVertices(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	eng2 := NewEngine[int64, struct{}, int64](Config{NumWorkers: 2}, prog)
	eng2.RegisterAggregator("steps", AggSum, 1, false)
	if err := eng2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	for i := range eng.Vertices() {
		if eng.Vertices()[i].Value != eng2.Vertices()[i].Value {
			t.Fatalf("vertex %d value mismatch after restore", i)
		}
	}
}

func TestRestoreValidation(t *testing.T) {
	prog := &ckptProg{stopAfter: 2}
	eng := NewEngine[int64, struct{}, int64](Config{NumWorkers: 1}, prog)
	prog.steps = eng.RegisterAggregator("steps", AggSum, 1, false)
	if err := eng.SetVertices(buildCkptVertices(20)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Missing aggregator registration.
	bad := NewEngine[int64, struct{}, int64](Config{NumWorkers: 1}, prog)
	if err := bad.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore into engine without aggregators accepted")
	}

	// Wrong aggregator size.
	bad2 := NewEngine[int64, struct{}, int64](Config{NumWorkers: 1}, prog)
	bad2.RegisterAggregator("steps", AggSum, 3, false)
	if err := bad2.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore with mismatched aggregator size accepted")
	}

	// Garbage input.
	bad3 := NewEngine[int64, struct{}, int64](Config{NumWorkers: 1}, prog)
	bad3.RegisterAggregator("steps", AggSum, 1, false)
	if err := bad3.Restore(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

func TestResumeWithoutRestore(t *testing.T) {
	eng := NewEngine[int64, struct{}, int64](Config{NumWorkers: 1}, &ckptProg{stopAfter: 2})
	if _, err := eng.ResumeRun(); err == nil {
		t.Fatal("ResumeRun without restore accepted")
	}
}
