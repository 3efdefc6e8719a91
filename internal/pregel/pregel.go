// Package pregel is a from-scratch, in-process implementation of the
// Pregel/Giraph bulk-synchronous graph-processing model (Malewicz et al.,
// SIGMOD 2010) that the Spinner paper builds on. It provides everything the
// paper's Giraph implementation relies on:
//
//   - supersteps with synchronous message delivery (messages sent during
//     superstep s are visible at superstep s+1);
//   - a vertex-centric Compute function with vote-to-halt semantics,
//     reactivation on message receipt, and a master that can wake every
//     vertex (Master.WakeAll);
//   - out-arcs of a type each program chooses, which the owning vertex may
//     mutate when the program owns them (Spinner does not: it reads a
//     graph.Weighted's rows in place);
//   - sharded aggregators: commutative/associative reductions accumulated
//     per worker and merged at the barrier, with optional persistence
//     across supersteps (Giraph's persistent aggregators, which Spinner
//     uses for the partition-load counters b(l));
//   - a master-compute hook that runs between supersteps, reads and writes
//     aggregators, and can halt the computation (Spinner's halting
//     heuristic and migration-probability computation live there);
//   - per-worker shared state, the feature §IV-A4 uses to emulate
//     asynchronous computation within a worker;
//   - per-superstep accounting of local vs. remote messages per worker,
//     which the cluster cost model turns into simulated wall-clock time.
//
// Workers are goroutines; vertex placement is controlled by a pluggable
// placement function so experiments can compare hash placement against
// Spinner-derived placement exactly as §V-F does.
//
// # Message-plane architecture
//
// The superstep hot path is allocation-free in steady state. All message
// buffers are engine-owned arenas created once per Run and truncated —
// never reallocated — between supersteps:
//
//   - Each worker keeps one reusable Context. Without a combiner its
//     outbox is one bin per destination block: a block is 1<<blockShift
//     consecutive entries of one worker's vertex list, and Engine.pos
//     gives each vertex its block and slot, so a send is one lookup and
//     one append. Context.Outbox hands a program that pair, Engine.pos and
//     the bins, by value: a loop of Outbox.Send inlines to the lookup and
//     the append, and SendTo without a combiner is the same Send. Bins
//     retain their capacity across supersteps; a worker holds
//     O(n/blockSize + workers) of them.
//   - Delivery is a blocked counting sort. Each destination worker sums
//     its bins' lengths (O(blocks × workers)), then per block counts,
//     carves windows in vertex order and fills them, walking the source
//     workers in order, so every scattered write lands in one block's
//     cache-resident counters. Writing the offsets costs O(owned
//     vertices) per superstep on top of O(messages) for count and fill;
//     the compute loop already reads every owned vertex, so it adds no
//     new asymptotic term. A worker's inboxes are then one offsets array
//     over its vertex list and one arena, as in CSR, which the next
//     compute loop reads sequentially.
//   - When a Combiner is installed, SendTo combines on the send side: each
//     worker stages at most one merged payload per destination vertex
//     (epoch-stamped slots, no clearing pass), and delivery moves one
//     message per (source worker, destination) pair. Combiners must be
//     commutative and associative, as in Giraph; SentLocal/SentRemote and
//     Received then count post-combining traffic, which is what would
//     cross the wire. Without a combiner every message is queued and
//     delivered individually, uncombined.
//   - Vote-to-halt bookkeeping is incremental: another superstep runs iff
//     a computed vertex did not vote to halt, a message was delivered, or
//     the master called WakeAll, counted at compute and delivery time, so
//     the engine never rescans the vertex set, and delivery never reads a
//     vertex record. Each worker mirrors its vertices' votes, one byte per
//     slot of its vertex list, so the compute loop skips a halted vertex
//     without reading its record; WakeAll clears the mirrors.
//     SuperstepStats.Active counts the vertices computed: those that had
//     not voted to halt, those a message woke, or all after WakeAll.
//   - Aggregators are reached by handle, never by name. RegisterAggregator
//     returns an Aggregator that Context.Aggregate, AggregatedValue and
//     AggregatedVector and Master.Agg and SetAgg take; a call costs a
//     pointer comparison (the handle must be this engine's), a bounds check
//     and one add, with no map lookup. A worker's partial accumulators of
//     all aggregators lie side by side in one slab, each aggregator at a
//     fixed offset; every worker's slab is its own allocation with a cache
//     line of padding at both ends, so two workers never write the same
//     line however small the aggregators are. Names survive where a run
//     meets the outside: Engine.AggregatedValue(name).
//   - Aggregator merging reuses per-aggregator scratch vectors, walks the
//     workers' slabs in worker order, and runs the independent aggregators
//     in parallel at the barrier when the vectors are large.
package pregel

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/graph"
)

// VertexID aliases the graph package's vertex identifier.
type VertexID = graph.VertexID

// Vertex is the unit of computation. Edges holds its outgoing arcs, of
// whatever type A the program chooses: the engine never reads them, it only
// hands them to Compute. A bare target (VertexID) serves the analytics
// apps; Spinner uses graph.WeightedArc, so a graph.Weighted's rows can be
// handed in as they are. Value may be mutated freely by the owning vertex
// during Compute, and so may Edges when the program owns them; rows the
// caller shares with something else, as Spinner's are, are the program's
// to read only.
type Vertex[V, A any] struct {
	ID     VertexID
	Value  V
	Edges  []A
	halted bool
}

// VoteToHalt marks the vertex inactive; a message arriving wakes it
// (standard Pregel semantics).
func (v *Vertex[V, A]) VoteToHalt() { v.halted = true }

// Program is the user computation. Compute is invoked for every active
// vertex every superstep; msgs holds the messages delivered this superstep
// (empty if none). Implementations may retain no references to msgs after
// returning.
type Program[V, A, M any] interface {
	Compute(ctx *Context[V, A, M], v *Vertex[V, A], msgs []M)
}

// MasterProgram is implemented by programs that need a master computation
// between supersteps (Giraph's MasterCompute). It runs single-threaded
// after the barrier of every superstep, seeing that superstep's merged
// aggregator values.
type MasterProgram interface {
	MasterCompute(m *Master)
}

// WorkerInitializer is implemented by programs that keep per-worker shared
// state (§IV-A4). InitWorker is called once per worker before superstep 0;
// the returned value is available to Compute via Context.WorkerState.
type WorkerInitializer interface {
	InitWorker(workerID, numWorkers int) any
}

// Combiner optionally merges messages addressed to the same vertex
// (Giraph's message combiner). Used by SSSP (min) and PageRank (sum).
// Combiners must be commutative and associative: with one installed the
// engine combines on the send side, per worker, and merges the per-worker
// results in worker order at delivery.
type Combiner[M any] func(a, b M) M

// Config configures an Engine.
type Config struct {
	// NumWorkers is the number of workers, one goroutine each. Defaults to
	// DefaultWorkers, whatever the host: a run's outcome may depend on the
	// worker count (Spinner's per-worker load views do), never on
	// GOMAXPROCS.
	NumWorkers int
	// Placement maps a vertex to a worker in [0, NumWorkers). Defaults to
	// contiguous ranges. Experiments on partitioning-aware placement
	// (Fig. 9 / Table IV) supply label-based placements here.
	Placement func(VertexID) int
	// MaxSupersteps bounds the run; 0 means 10_000.
	MaxSupersteps int
	// AfterSuperstep, when non-nil, is invoked single-threaded after each
	// superstep's barrier and master computation with the 0-based index of
	// the superstep just executed — including the final one when the master
	// halts. The callback may read engine state (Vertices, Stats,
	// AggregatedValue) to extract a consistent mid-run snapshot; it must
	// not mutate vertices or send messages. The serving layer uses this to
	// publish progressively better labelings while a long restabilization
	// run is still converging.
	AfterSuperstep func(superstep int)
}

// DefaultWorkers is the worker count of a Config that names none.
const DefaultWorkers = 8

type aggOp int

// Aggregator reduction operators.
const (
	AggSum aggOp = iota
	AggMin
	AggMax
)

// identity returns the neutral element of the reduction.
func (op aggOp) identity() float64 {
	switch op {
	case AggMin:
		return inf
	case AggMax:
		return -inf
	}
	return 0
}

const inf = 1e308

// Aggregator is the handle RegisterAggregator returns: the only way Compute
// and MasterCompute reach an aggregator. It is valid for the engine that
// issued it; the zero value is not a handle.
type Aggregator struct{ a *aggregator }

type aggregator struct {
	name       string
	plane      *aggPlane // the issuing engine's table, checked on every access
	op         aggOp
	size       int
	off        int // this aggregator's window in every worker's slab is [off, off+size)
	persistent bool
	current    []float64 // readable value (previous superstep's merge)
	scratch    []float64 // reusable merge buffer (barrier only)
}

// aggPlane is one engine's aggregator table. It is not generic, so handles,
// the Master and every Engine[V, A, M] share it.
type aggPlane struct {
	list  []*aggregator // registration order
	width int           // Σ size: the length of one worker's slab
	// slabs[w] holds worker w's partial accumulators of every aggregator.
	// Each is its own allocation, a cache line of padding at both ends, so
	// two workers never write the same line (see initSlabs).
	slabs [][]float64
}

// cacheLinePad is one 64-byte cache line, in float64s.
const cacheLinePad = 8

func (pl *aggPlane) initSlabs(workers int) {
	pl.slabs = make([][]float64, workers)
	for w := range pl.slabs {
		buf := make([]float64, cacheLinePad+pl.width+cacheLinePad)
		pl.slabs[w] = buf[cacheLinePad : cacheLinePad+pl.width : cacheLinePad+pl.width]
	}
	for _, a := range pl.list {
		a.scratch = make([]float64, a.size)
		a.resetPartials(pl.slabs)
	}
}

// get resolves a handle issued by this plane's engine.
func (pl *aggPlane) get(h Aggregator) *aggregator {
	if h.a == nil || h.a.plane != pl {
		badHandle(h)
	}
	return h.a
}

func (pl *aggPlane) byName(name string) *aggregator {
	for _, a := range pl.list {
		if a.name == name {
			return a
		}
	}
	return nil
}

// badHandle and badIndex keep the panics out of the inlined hot path.
func badHandle(h Aggregator) {
	if h.a == nil {
		panic("pregel: zero Aggregator handle")
	}
	panic(fmt.Sprintf("pregel: aggregator %q belongs to another engine", h.a.name))
}

func badIndex(a *aggregator, idx int) {
	panic(fmt.Sprintf("pregel: aggregator %q index %d out of range [0,%d)", a.name, idx, a.size))
}

func (a *aggregator) resetPartials(slabs [][]float64) {
	id := a.op.identity()
	for _, slab := range slabs {
		p := slab[a.off : a.off+a.size]
		for i := range p {
			p[i] = id
		}
	}
}

// SuperstepStats records one superstep's accounting, per worker, for the
// cluster cost model and the scalability figures.
type SuperstepStats struct {
	Superstep      int
	Active         int64   // vertices computed (see the package doc's vote-to-halt bullet)
	SentLocal      []int64 // per source worker
	SentRemote     []int64 // per source worker
	Received       []int64 // per destination worker (all sources)
	ReceivedRemote []int64 // per destination worker, cross-worker only
	ComputeEdges   []int64 // per worker: edges scanned (proxy for compute)
	Duration       time.Duration
}

// TotalSent returns the total number of messages sent in the superstep.
func (s *SuperstepStats) TotalSent() int64 {
	var t int64
	for i := range s.SentLocal {
		t += s.SentLocal[i] + s.SentRemote[i]
	}
	return t
}

// Engine executes a Program over a vertex set with BSP semantics.
type Engine[V, A, M any] struct {
	cfg      Config
	prog     Program[V, A, M]
	combiner Combiner[M]

	vertices []Vertex[V, A] // indexed by VertexID
	place    []int32        // vertex -> worker
	byWorker [][]VertexID   // worker -> owned vertices (deterministic order)

	// The no-combiner message plane (see the package doc): pos[v] is v's
	// slot in the padded vertex order, where worker w's vertices fill
	// blocks [blockLo[w], blockLo[w+1]) in byWorker order, so pos>>blockShift
	// is v's block and the index of its bin in every Context.
	pos     []int32
	blockLo []int
	inArena []M // every worker's inboxes, carved per superstep (carveInboxes)

	inbox   [][]M               // vertex -> combined message (combiner path only)
	pending [][]VertexID        // worker -> owned vertices with a combined message (combiner path only)
	ctxs    []*Context[V, A, M] // reusable per-worker contexts (outbox arenas)
	active  int64               // vertices staying active + messages delivered: nonzero iff the next superstep has work

	// halted[w][i] mirrors the vote of worker w's i-th vertex, so the
	// compute loop skips a halted vertex without reading its record.
	halted [][]bool

	aggs *aggPlane

	workerState []any

	superstep int
	stats     []SuperstepStats
}

// NewEngine builds an engine over the given program.
func NewEngine[V, A, M any](cfg Config, prog Program[V, A, M]) *Engine[V, A, M] {
	if cfg.NumWorkers <= 0 {
		cfg.NumWorkers = DefaultWorkers
	}
	if cfg.MaxSupersteps <= 0 {
		cfg.MaxSupersteps = 10000
	}
	return &Engine[V, A, M]{cfg: cfg, prog: prog, aggs: &aggPlane{}}
}

// SetCombiner installs a message combiner.
func (e *Engine[V, A, M]) SetCombiner(c Combiner[M]) { e.combiner = c }

// RegisterAggregator declares a named aggregator holding a vector of size
// values reduced with op, and returns the handle that Context and Master
// take. Persistent aggregators carry their value across supersteps, merging
// each superstep's contributions into it (sum op only); non-persistent
// aggregators are reset every superstep. The name identifies the aggregator
// to Engine.AggregatedValue. Must be called before Run.
func (e *Engine[V, A, M]) RegisterAggregator(name string, op aggOp, size int, persistent bool) Aggregator {
	pl := e.aggs
	if pl.byName(name) != nil {
		panic(fmt.Sprintf("pregel: duplicate aggregator %q", name))
	}
	if persistent && op != AggSum {
		panic("pregel: persistent aggregators must use AggSum")
	}
	a := &aggregator{name: name, plane: pl, op: op, size: size, off: pl.width, persistent: persistent}
	a.current = make([]float64, size)
	for i := range a.current {
		a.current[i] = op.identity()
	}
	pl.list = append(pl.list, a)
	pl.width += size
	return Aggregator{a}
}

// SetVertices loads the vertex set. Vertex IDs must equal slice indices.
// Must be called before Run.
func (e *Engine[V, A, M]) SetVertices(vs []Vertex[V, A]) error {
	for i := range vs {
		if vs[i].ID != VertexID(i) {
			return fmt.Errorf("pregel: vertex at index %d has ID %d; IDs must be dense", i, vs[i].ID)
		}
	}
	e.vertices = vs
	return nil
}

// Vertices exposes the vertex slice after a run (read-only by convention).
func (e *Engine[V, A, M]) Vertices() []Vertex[V, A] { return e.vertices }

// Stats returns per-superstep accounting collected during Run.
func (e *Engine[V, A, M]) Stats() []SuperstepStats { return e.stats }

// AggregatedValue returns the current merged value of the named aggregator
// (a copy).
func (e *Engine[V, A, M]) AggregatedValue(name string) []float64 {
	a := e.aggs.byName(name)
	if a == nil {
		panic(fmt.Sprintf("pregel: unknown aggregator %q", name))
	}
	out := make([]float64, a.size)
	copy(out, a.current)
	return out
}

// ErrNoVertices is returned by Run when no vertex set was loaded.
var ErrNoVertices = errors.New("pregel: no vertices loaded")

// Run executes supersteps until every vertex has halted with no messages in
// flight, the master halts the computation, or MaxSupersteps is reached.
// It returns the number of supersteps executed.
func (e *Engine[V, A, M]) Run() (int, error) {
	if len(e.vertices) == 0 {
		return 0, ErrNoVertices
	}
	e.initPlacement()
	e.initWorkers()
	e.initMessagePlane()

	wake := false
	for e.superstep = 0; e.superstep < e.cfg.MaxSupersteps; e.superstep++ {
		if e.active == 0 && !wake && e.superstep > 0 {
			return e.superstep, nil
		}
		e.runSuperstep(wake)
		halted := false
		wake = false
		if mp, ok := e.prog.(MasterProgram); ok {
			m := &Master{aggs: e.aggs, superstep: e.superstep}
			mp.MasterCompute(m)
			halted, wake = m.halted, m.woken
		}
		if e.cfg.AfterSuperstep != nil {
			e.cfg.AfterSuperstep(e.superstep)
		}
		if halted {
			return e.superstep + 1, nil
		}
	}
	return e.superstep, nil
}

// initPlacement places every vertex and lists each worker's vertices in
// ID order, all the lists carved from one array of n.
func (e *Engine[V, A, M]) initPlacement() {
	n := len(e.vertices)
	w := e.cfg.NumWorkers
	e.place = make([]int32, n)
	placeFn := e.cfg.Placement
	if placeFn == nil {
		chunk := (n + w - 1) / w
		placeFn = func(v VertexID) int { return int(v) / chunk }
	}
	owned := make([]int, w)
	for v := 0; v < n; v++ {
		wk := placeFn(VertexID(v))
		if wk < 0 || wk >= w {
			wk = ((wk % w) + w) % w
		}
		e.place[v] = int32(wk)
		owned[wk]++
	}
	e.byWorker = make([][]VertexID, w)
	ids := make([]VertexID, n)
	for wk, c := range owned {
		e.byWorker[wk], ids = ids[:0:c], ids[c:]
	}
	for v, wk := range e.place {
		e.byWorker[wk] = append(e.byWorker[wk], VertexID(v))
	}
}

func (e *Engine[V, A, M]) initWorkers() {
	w := e.cfg.NumWorkers
	e.workerState = make([]any, w)
	if wi, ok := e.prog.(WorkerInitializer); ok {
		for i := 0; i < w; i++ {
			e.workerState[i] = wi.InitWorker(i, w)
		}
	}
	e.aggs.initSlabs(w)
}

// initMessagePlane builds the reusable per-worker contexts and the inboxes
// of the delivery path in use, and seeds the halted mirror and the
// incremental active count with one pass over the vertices.
func (e *Engine[V, A, M]) initMessagePlane() {
	w := e.cfg.NumWorkers
	n := len(e.vertices)
	if e.combiner != nil {
		e.inbox = make([][]M, n)
		e.pending = make([][]VertexID, w)
	} else {
		e.blockLo = make([]int, w+1)
		e.pos = make([]int32, n)
		for wk, vs := range e.byWorker {
			e.blockLo[wk+1] = e.blockLo[wk] + (len(vs)+blockSize-1)>>blockShift
			for i, v := range vs {
				e.pos[v] = int32(e.blockLo[wk]<<blockShift + i)
			}
		}
	}
	e.ctxs = make([]*Context[V, A, M], w)
	for wk := 0; wk < w; wk++ {
		ctx := &Context[V, A, M]{engine: e, workerID: wk, partials: e.aggs.slabs[wk]}
		if e.combiner != nil {
			ctx.combVal = make([]M, n)
			ctx.combEpoch = make([]uint32, n)
			ctx.combDst = make([][]VertexID, w)
		} else {
			ctx.bins = make([][]addrMsg[M], e.blockLo[w])
			ctx.inOff = make([]int32, len(e.byWorker[wk])+1)
			ctx.cur = make([]int32, blockSize)
		}
		e.ctxs[wk] = ctx
	}
	e.active = 0
	e.halted = make([][]bool, w)
	flags := make([]bool, n)
	for wk, vs := range e.byWorker {
		e.halted[wk], flags = flags[:len(vs):len(vs)], flags[len(vs):]
		for i, v := range vs {
			e.halted[wk][i] = e.vertices[v].halted
			if !e.vertices[v].halted {
				e.active++
			}
		}
	}
}
