package pregel

import (
	"fmt"
	"sync"
	"time"
)

// addrMsg is a message in flight, addressed to its destination's slot in
// the padded vertex order (Engine.pos).
type addrMsg[M any] struct {
	at      int32
	payload M
}

// Delivery's block is 1<<blockShift consecutive entries of one worker's
// vertex list: its cursors (16 KB) stay in cache while it is counted and
// filled. On BenchmarkDelivery and BenchmarkPartitionWeighted (2 cores),
// 2^10, 2^12 and 2^14 were within noise of one another.
const (
	blockShift = 12
	blockSize  = 1 << blockShift
)

// Context is the per-worker view handed to Compute. It is valid only for
// the duration of the Compute call chain on its worker and must not be
// retained. The engine keeps one Context per worker alive across
// supersteps so its outbox arenas retain their capacity; reset truncates
// them between supersteps.
type Context[V, A, M any] struct {
	engine   *Engine[V, A, M]
	workerID int
	partials []float64 // this worker's aggregator slab (aggPlane.slabs[workerID])

	// The no-combiner plane: bins is the outbox, indexed by destination
	// block; inArena is this worker's window of the engine's one inbox
	// arena, and inArena[inOff[i]:inOff[i+1]] the inbox of its i-th
	// vertex; cur holds one block's window cursors during delivery.
	bins    [][]addrMsg[M]
	inOff   []int32
	inArena []M
	cur     []int32

	// Send-side combining plane, allocated only when a combiner is set:
	// combVal[dst] holds this worker's staged merged payload for dst,
	// valid iff combEpoch[dst] == epoch (stamping avoids a clearing pass),
	// and combDst[w] lists staged destinations owned by worker w in first-
	// send order (the deterministic delivery order).
	combVal   []M
	combEpoch []uint32
	combDst   [][]VertexID
	epoch     uint32

	sentLoc    int64
	sentRem    int64
	edges      int64
	computed   int64
	stayActive int64 // computed vertices that did not vote to halt

	// The counters above change on every vertex; a cache line of padding
	// keeps the next worker's Context, allocated beside this one, off
	// their line.
	_ [8 * cacheLinePad]byte
}

// reset prepares the context for the next superstep, truncating the
// outbox arenas in place so their capacity is reused.
func (c *Context[V, A, M]) reset() {
	c.sentLoc, c.sentRem, c.edges, c.computed = 0, 0, 0, 0
	c.stayActive = 0
	for i := range c.bins {
		c.bins[i] = c.bins[i][:0]
	}
	for i := range c.combDst {
		c.combDst[i] = c.combDst[i][:0]
	}
	c.epoch++
}

// Superstep returns the current superstep number (0-based).
func (c *Context[V, A, M]) Superstep() int { return c.engine.superstep }

// NumVertices returns the global vertex count.
func (c *Context[V, A, M]) NumVertices() int { return len(c.engine.vertices) }

// WorkerState returns this worker's shared state, created by the program's
// InitWorker (nil if the program is not a WorkerInitializer). All vertices
// computed on the same worker see the same value — this is the mechanism
// behind §IV-A4's asynchronous per-worker computation.
func (c *Context[V, A, M]) WorkerState() any { return c.engine.workerState[c.workerID] }

// SendTo queues a message for delivery to dst at the next superstep. When
// a combiner is installed the message is merged into this worker's staging
// slot for dst instead of being queued, so at most one message per
// (worker, destination) pair travels to the barrier; the sent counters
// then reflect post-combining traffic. Without one it is Outbox().Send.
func (c *Context[V, A, M]) SendTo(dst VertexID, msg M) {
	e := c.engine
	if e.combiner != nil {
		if c.combEpoch[dst] == c.epoch {
			c.combVal[dst] = e.combiner(c.combVal[dst], msg)
			return
		}
		c.combEpoch[dst] = c.epoch
		c.combVal[dst] = msg
		w := e.place[dst]
		c.combDst[w] = append(c.combDst[w], dst)
		if int(w) == c.workerID {
			c.sentLoc++
		} else {
			c.sentRem++
		}
		return
	}
	Outbox[M]{e.pos, c.bins}.Send(dst, msg)
}

// Outbox is a worker's no-combiner outbox for the current superstep: the
// slots of Engine.pos and the Context's bins, by value, so a loop that
// sends along many arcs reads neither through the Context. It is valid
// for the Compute call it was taken in, like the Context.
type Outbox[M any] struct {
	pos  []int32
	bins [][]addrMsg[M]
}

// Outbox returns this worker's outbox. It panics when a combiner is
// installed: messages then go through SendTo, which combines them.
func (c *Context[V, A, M]) Outbox() Outbox[M] {
	if c.engine.combiner != nil {
		panic("pregel: Outbox with a combiner installed; use SendTo")
	}
	return Outbox[M]{c.engine.pos, c.bins}
}

// Send queues msg for delivery to dst at the next superstep: one lookup
// and one append to the bin of dst's block.
func (o Outbox[M]) Send(dst VertexID, msg M) {
	p := o.pos[dst]
	bin := &o.bins[p>>blockShift]
	*bin = append(*bin, addrMsg[M]{at: p, payload: msg})
}

// Aggregate contributes value to element idx of the aggregator. The
// contribution becomes visible in the merged value after the barrier.
func (c *Context[V, A, M]) Aggregate(h Aggregator, idx int, value float64) {
	a := c.engine.aggs.get(h)
	if uint(idx) >= uint(a.size) {
		badIndex(a, idx)
	}
	p := &c.partials[a.off+idx]
	switch a.op {
	case AggSum:
		*p += value
	case AggMin:
		if value < *p {
			*p = value
		}
	case AggMax:
		if value > *p {
			*p = value
		}
	}
}

// AggregatedValue returns element idx of the aggregator as merged at the
// end of the previous superstep (Pregel semantics).
func (c *Context[V, A, M]) AggregatedValue(h Aggregator, idx int) float64 {
	a := c.engine.aggs.get(h)
	if uint(idx) >= uint(a.size) {
		badIndex(a, idx)
	}
	return a.current[idx]
}

// AggregatedVector copies the aggregator's full merged vector into dst
// (which must have the aggregator's size) and returns it.
func (c *Context[V, A, M]) AggregatedVector(h Aggregator, dst []float64) []float64 {
	copy(dst, c.engine.aggs.get(h).current)
	return dst
}

// CountEdges lets Compute report how many edges it scanned; the cluster
// cost model uses it as the compute term. Programs may skip it; the engine
// then falls back to counting processed vertices.
func (c *Context[V, A, M]) CountEdges(n int) { c.edges += int64(n) }

// Master is the interface handed to MasterCompute between supersteps.
type Master struct {
	superstep int
	halted    bool
	woken     bool
	aggs      *aggPlane
}

// Superstep returns the superstep that just finished.
func (m *Master) Superstep() int { return m.superstep }

// Halt stops the computation after this master compute.
func (m *Master) Halt() { m.halted = true }

// WakeAll makes every vertex compute in the next superstep, halted or
// not, and keeps the run from ending before it for lack of active
// vertices. Halt still ends the run.
func (m *Master) WakeAll() { m.woken = true }

// Agg returns the merged value of the aggregator (live slice; treat as
// read-only and use SetAgg to modify).
func (m *Master) Agg(h Aggregator) []float64 { return m.aggs.get(h).current }

// SetAgg overwrites the aggregator's merged value; vertices read it during
// the next superstep. The Spinner master uses this to publish the
// migration probabilities.
func (m *Master) SetAgg(h Aggregator, v []float64) {
	a := m.aggs.get(h)
	if len(v) != a.size {
		panic(fmt.Sprintf("pregel: SetAgg(%q) size %d != %d", a.name, len(v), a.size))
	}
	copy(a.current, v)
}

// runSuperstep executes one BSP superstep: parallel compute, message
// routing, aggregator merge. All message buffers are engine-owned arenas
// reused across supersteps; in steady state the only per-superstep
// allocations are the stats record and the worker goroutines themselves.
// When wake is set (Master.WakeAll), every vertex computes.
func (e *Engine[V, A, M]) runSuperstep(wake bool) {
	start := time.Now()
	w := e.cfg.NumWorkers
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		ctx := e.ctxs[wk]
		ctx.reset()
		wg.Add(1)
		go func(wk int, ctx *Context[V, A, M]) {
			defer wg.Done()
			off, arena, halted := ctx.inOff, ctx.inArena, e.halted[wk]
			if wake {
				clear(halted)
			}
			for i, vid := range e.byWorker[wk] {
				var msgs []M
				if e.combiner != nil {
					msgs = e.inbox[vid]
				} else {
					msgs = arena[off[i]:off[i+1]:off[i+1]]
				}
				if halted[i] && len(msgs) == 0 {
					continue
				}
				v := &e.vertices[vid]
				v.halted = false
				ctx.computed++
				e.prog.Compute(ctx, v, msgs)
				halted[i] = v.halted
				if !v.halted {
					ctx.stayActive++
				}
			}
		}(wk, ctx)
	}
	wg.Wait()

	// Accounting: one backing array for all five per-worker vectors (they
	// escape into e.stats, so they cannot be arena-reused).
	buf := make([]int64, 5*w)
	st := SuperstepStats{
		Superstep:      e.superstep,
		SentLocal:      buf[0*w : 1*w : 1*w],
		SentRemote:     buf[1*w : 2*w : 2*w],
		Received:       buf[2*w : 3*w : 3*w],
		ReceivedRemote: buf[3*w : 4*w : 4*w],
		ComputeEdges:   buf[4*w : 5*w : 5*w],
	}
	for wk, ctx := range e.ctxs {
		// Without a combiner the bins are the sent counters: those of
		// this worker's own blocks hold its local messages.
		for b, bin := range ctx.bins {
			if b >= e.blockLo[wk] && b < e.blockLo[wk+1] {
				ctx.sentLoc += int64(len(bin))
			} else {
				ctx.sentRem += int64(len(bin))
			}
		}
		st.SentLocal[wk] = ctx.sentLoc
		st.SentRemote[wk] = ctx.sentRem
		st.ComputeEdges[wk] = ctx.edges
	}
	if e.combiner == nil {
		e.carveInboxes(&st)
	}

	// Delivery: each destination worker drains, in source-worker order for
	// determinism, the bins (deliverBlocks) or the combiner staging slots
	// addressed to it. With a combiner it first truncates, in place, the
	// inboxes its vertices consumed this superstep (the pending list makes
	// this O(delivered vertices), not O(n)). Delivery reads no vertex
	// record: a halted vertex that received messages is woken by the
	// compute loop, which runs any vertex whose inbox is not empty.
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			if e.combiner == nil {
				e.deliverBlocks(wk)
				return
			}
			pend := e.pending[wk]
			for _, vid := range pend {
				e.inbox[vid] = e.inbox[vid][:0]
			}
			pend = pend[:0]
			var received, receivedRemote int64
			for src := 0; src < w; src++ {
				remote := src != wk
				sctx := e.ctxs[src]
				for _, dst := range sctx.combDst[wk] {
					received++
					if remote {
						receivedRemote++
					}
					box := e.inbox[dst]
					if len(box) > 0 {
						box[0] = e.combiner(box[0], sctx.combVal[dst])
					} else {
						box = append(box, sctx.combVal[dst])
						pend = append(pend, dst)
					}
					e.inbox[dst] = box
				}
			}
			e.pending[wk] = pend
			st.Received[wk] = received
			st.ReceivedRemote[wk] = receivedRemote
		}(wk)
	}
	wg.Wait()

	// Merge aggregators at the barrier. Each aggregator merges into its own
	// reusable scratch vector; aggregators are independent, so when the
	// merge work is large enough to repay goroutine spawns they merge in
	// parallel, each still walking workers in order (deterministic either
	// way). Small vectors — the common case — merge serially: the spawn
	// plus WaitGroup costs more than the few KB of folding they would hide.
	pl := e.aggs
	parallelMerge := len(pl.list) > 1 && pl.width*w >= 1<<14
	for _, a := range pl.list {
		if !parallelMerge {
			a.merge(pl.slabs)
			continue
		}
		wg.Add(1)
		go func(a *aggregator) {
			defer wg.Done()
			a.merge(pl.slabs)
		}(a)
	}
	if parallelMerge {
		wg.Wait()
	}

	// The next superstep has work iff a vertex stayed active or a message
	// was delivered: e.active counts both, which is all Run asks of it.
	var active, nextActive int64
	for wk, ctx := range e.ctxs {
		active += ctx.computed
		nextActive += ctx.stayActive + st.Received[wk]
	}
	e.active = nextActive
	st.Active = active
	st.Duration = time.Since(start)
	e.stats = append(e.stats, st)
}

// carveInboxes counts what each worker receives this superstep and
// carves the workers' windows, in worker order, out of one arena sized to
// the superstep's total, before any delivery starts. The arena only
// grows, so once it has reached the run's peak message volume a superstep
// allocates nothing here.
func (e *Engine[V, A, M]) carveInboxes(st *SuperstepStats) {
	total := 0
	for wk := range e.ctxs {
		lo, hi := e.blockLo[wk], e.blockLo[wk+1]
		var got, remote int
		for src, ctx := range e.ctxs {
			for _, bin := range ctx.bins[lo:hi] {
				got += len(bin)
				if src != wk {
					remote += len(bin)
				}
			}
		}
		st.Received[wk] = int64(got)
		st.ReceivedRemote[wk] = int64(remote)
		total += got
	}
	if total > len(e.inArena) {
		e.inArena = make([]M, total)
	}
	base := 0
	for wk, ctx := range e.ctxs {
		end := base + int(st.Received[wk])
		ctx.inArena = e.inArena[base:end:end]
		base = end
	}
}

// deliverBlocks lays out worker wk's inboxes for the next superstep in the
// window carveInboxes gave it: a counting sort of the bins of its blocks,
// one block at a time. Per block it counts each slot's messages, carves
// the windows in vertex order and fills them in source-worker order, then
// send order.
func (e *Engine[V, A, M]) deliverBlocks(wk int) {
	lo, hi := e.blockLo[wk], e.blockLo[wk+1]
	ctx := e.ctxs[wk]
	arena, off, cur := ctx.inArena, ctx.inOff, ctx.cur
	var next int32
	for b := lo; b < hi; b++ {
		first := (b - lo) << blockShift
		cnt := cur[:min(blockSize, len(off)-1-first)]
		clear(cnt)
		for _, ctx := range e.ctxs {
			for _, am := range ctx.bins[b] {
				cnt[am.at&(blockSize-1)]++
			}
		}
		for i, c := range cnt {
			off[first+i] = next
			cnt[i] = next
			next += c
		}
		for _, ctx := range e.ctxs {
			for _, am := range ctx.bins[b] {
				i := am.at & (blockSize - 1)
				arena[cnt[i]] = am.payload
				cnt[i]++
			}
		}
	}
	off[len(off)-1] = next
}

// merge folds the per-worker partials into current via the reusable
// scratch buffer, walking workers in order, and resets the partials for the
// next superstep.
func (a *aggregator) merge(slabs [][]float64) {
	merged := a.scratch
	id := a.op.identity()
	for i := range merged {
		merged[i] = id
	}
	for _, slab := range slabs {
		p := slab[a.off : a.off+a.size]
		for i := range merged {
			switch a.op {
			case AggSum:
				merged[i] += p[i]
			case AggMin:
				if p[i] < merged[i] {
					merged[i] = p[i]
				}
			case AggMax:
				if p[i] > merged[i] {
					merged[i] = p[i]
				}
			}
		}
	}
	if a.persistent {
		for i := range merged {
			a.current[i] += merged[i]
		}
	} else {
		copy(a.current, merged)
	}
	a.resetPartials(slabs)
}
