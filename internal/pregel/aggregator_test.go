package pregel

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

// mustPanicWith runs fn and checks it panics with a message containing
// every one of want.
func mustPanicWith(t *testing.T, what string, fn func(), want ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", what)
		}
		msg := fmt.Sprint(r)
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Fatalf("%s: panic %q does not mention %q", what, msg, w)
			}
		}
	}()
	fn()
}

// misuseProg calls Aggregate with whatever handle and index the test
// planted.
type misuseProg struct {
	h   Aggregator
	idx int
}

func (p *misuseProg) Compute(ctx *Context[int64, VertexID, int64], v *Vertex[int64, VertexID], _ []int64) {
	ctx.Aggregate(p.h, p.idx, 1)
}

// TestAggregatorHandleMisuse: a handle of another engine, an index outside
// the vector and the zero handle all panic, the first two naming the
// aggregator. One worker, so the panic surfaces on the test's goroutine.
func TestAggregatorHandleMisuse(t *testing.T) {
	run := func(mod func(e, other *Engine[int64, VertexID, int64], p *misuseProg)) func() {
		return func() {
			p := &misuseProg{}
			e := NewEngine[int64, VertexID, int64](Config{NumWorkers: 1}, p)
			other := NewEngine[int64, VertexID, int64](Config{NumWorkers: 1}, p)
			mod(e, other, p)
			vs := buildVertices(graph.New(1, false), func(VertexID) int64 { return 0 })
			runInline(e, vs)
		}
	}
	mustPanicWith(t, "foreign handle", run(func(e, other *Engine[int64, VertexID, int64], p *misuseProg) {
		e.RegisterAggregator("mine", AggSum, 2, false)
		p.h = other.RegisterAggregator("theirs", AggSum, 2, false)
	}), `"theirs"`, "another engine")
	mustPanicWith(t, "index past the end", run(func(e, _ *Engine[int64, VertexID, int64], p *misuseProg) {
		p.h, p.idx = e.RegisterAggregator("loads", AggSum, 2, false), 2
	}), `"loads"`, "index 2", "[0,2)")
	mustPanicWith(t, "negative index", run(func(e, _ *Engine[int64, VertexID, int64], p *misuseProg) {
		p.h, p.idx = e.RegisterAggregator("loads", AggSum, 2, false), -1
	}), `"loads"`, "index -1")
	mustPanicWith(t, "zero handle", run(func(e, _ *Engine[int64, VertexID, int64], _ *misuseProg) {
		e.RegisterAggregator("loads", AggSum, 2, false)
	}), "zero Aggregator")

	// The master's accessors check the handle the same way.
	e := NewEngine[int64, VertexID, int64](Config{}, &misuseProg{})
	other := NewEngine[int64, VertexID, int64](Config{}, &misuseProg{})
	h := other.RegisterAggregator("theirs", AggSum, 2, false)
	m := &Master{aggs: e.aggs}
	mustPanicWith(t, "Master.Agg", func() { m.Agg(h) }, `"theirs"`)
	mustPanicWith(t, "Master.SetAgg", func() { m.SetAgg(h, []float64{0, 0}) }, `"theirs"`)
	mustPanicWith(t, "SetAgg size", func() { (&Master{aggs: other.aggs}).SetAgg(h, []float64{0}) }, `"theirs"`, "size 1")
}

// runInline computes every vertex of a one-worker engine on the calling
// goroutine, so a panic in Compute reaches the caller's recover.
func runInline(e *Engine[int64, VertexID, int64], vs []Vertex[int64, VertexID]) {
	if err := e.SetVertices(vs); err != nil {
		panic(err)
	}
	e.initPlacement()
	e.initWorkers()
	e.inbox = make([][]int64, len(vs))
	e.initMessagePlane()
	for i := range e.vertices {
		e.prog.Compute(e.ctxs[0], &e.vertices[i], nil)
	}
}

// TestAggregatorSlabsDoNotShareCacheLines: every worker's partials are one
// slab, and the slabs of two workers lie at least a cache line apart, so
// concurrent Aggregate calls never write the same line.
func TestAggregatorSlabsDoNotShareCacheLines(t *testing.T) {
	for _, workers := range []int{2, 4, 7} {
		e := newAggEngine(workers, 3)
		if err := e.SetVertices(buildVertices(graph.New(workers, false), func(VertexID) int64 { return 0 })); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		slabs := e.aggs.slabs
		if len(slabs) != workers {
			t.Fatalf("%d slabs for %d workers", len(slabs), workers)
		}
		type span struct{ lo, hi uintptr }
		spans := make([]span, workers)
		for w, s := range slabs {
			if len(s) != 6 { // sum(3) + min + max + persist
				t.Fatalf("worker %d slab holds %d values, want 6", w, len(s))
			}
			lo := uintptr(unsafe.Pointer(&s[0]))
			spans[w] = span{lo, lo + uintptr(len(s))*8}
			if e.ctxs[w].partials == nil || &e.ctxs[w].partials[0] != &s[0] {
				t.Fatalf("worker %d context does not write its own slab", w)
			}
		}
		for a := range spans {
			for b := range spans {
				if a == b {
					continue
				}
				if spans[a].lo < spans[b].hi+64 && spans[b].lo < spans[a].hi+64 {
					t.Fatalf("workers=%d: slabs of workers %d and %d are under 64 B apart: %#x–%#x, %#x–%#x",
						workers, a, b, spans[a].lo, spans[a].hi, spans[b].lo, spans[b].hi)
				}
			}
		}
	}
}
