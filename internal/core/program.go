package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/rng"
)

// Algorithm phases (Fig. 2 of the paper). Each phase maps onto one or more
// Pregel supersteps; the master advances the phase between supersteps.
const (
	phaseInitialization    = iota // label assignment + load aggregation
	phaseComputeScores            // pick candidate label maximizing Eq. 8
	phaseComputeMigrations        // probabilistic migration (Eq. 14)
)

// vval is the per-vertex state. The vertex's label is not in it: labels
// live in program.labels.
type vval struct {
	// hist is the vertex's neighbour-label histogram (see the package doc):
	// bar i is the Σ weight of the arcs to neighbours carrying the label
	// that is the i-th set bit of held. Built in iteration 1, then moved by
	// the migration announcements; capacity min(deg, k).
	hist  []int64
	held  []uint64 // the labels hist has a bar for, a bitmap of ⌈k/64⌉ words (see rank)
	degW  float64  // weighted degree as the bars count it, fixed at Initialization
	cand  int32    // candidate label for this iteration, -1 if none
	dirty bool     // AffectedOnly: may evaluate migration
}

// msg is the one message the program sends: a migration announcement along
// an arc. The sender left label old for label new, and w is the arc's
// weight — rows mirror each other, so that is what the receiver moves from
// bar old to bar new, with no arc lookup. Starting labels are never sent
// (computeScores reads them).
type msg struct {
	old, new, w int32
}

// The engine's types for this program: a vertex's arcs are
// graph.WeightedArc, so a graph.Weighted's rows serve as they are.
type (
	engine     = pregel.Engine[vval, graph.WeightedArc, msg]
	vertex     = pregel.Vertex[vval, graph.WeightedArc]
	computeCtx = pregel.Context[vval, graph.WeightedArc, msg]
)

// workerScratch is the per-worker shared state of §IV-A4: an
// asynchronously updated view of the partition loads, plus the arenas the
// worker's vertices carve their histograms and label bitmaps from. Every
// worker writes its own on every vertex, so a cache line of padding keeps
// the struct's fields, and each of its vectors, off any line that another
// worker writes (see padded).
type workerScratch struct {
	_           [cacheLine]byte
	refreshedAt int // superstep for which localLoads is current
	localLoads  []float64
	penalty     []float64 // −localLoads[l]/C_l, the balance term of Eq. 8, kept in step with localLoads
	penaltyUB   float64   // ≥ every penalty[l]: exact at the refresh, raised when a load falls
	sum         []int64   // buildHistogram scratch: label → its weight so far, zero between calls
	seen        []uint64  // buildHistogram scratch: bitmap of the labels met, zero between calls
	bars        []int64   // current chunk of bars; carve hands out its tail
	words       []uint64  // current chunk of bitmap words, likewise
	_           [cacheLine]byte
}

// cacheLine is the size of a cache line in bytes.
const cacheLine = 64

// padded returns n zeroed elements with a cache line of padding on both
// sides, so that nothing another goroutine writes shares a line with them.
func padded[T float64 | int64 | uint64](n int) []T {
	const pad = cacheLine / 8
	return make([]T, pad+n+pad)[pad : pad+n : pad+n]
}

// Arena chunks double from histChunkMin up to histChunkMax elements, so a
// small run allocates little and a large one wastes under 128 KB a
// worker.
const (
	histChunkMin = 1 << 8
	histChunkMax = 1 << 14
)

// carve returns an empty window of capacity n from the tail of *arena,
// starting a new chunk when the tail is too short. A chunk is zeroed when
// made and never reused.
func carve[T any](arena *[]T, n int) []T {
	if n > cap(*arena)-len(*arena) {
		size := min(max(2*cap(*arena), histChunkMin), histChunkMax)
		*arena = make([]T, 0, max(n, size))
	}
	off := len(*arena)
	*arena = (*arena)[:off+n]
	return (*arena)[off : off : off+n]
}

// program is the Spinner vertex program plus its master state. One
// instance drives one partitioning run.
type program struct {
	opts     Options
	k        int
	affected []bool // AffectedOnly: initially-dirty vertices (nil → all dirty)

	// labels is the one home of every vertex's label, indexed by vertex ID.
	// A vertex writes its own slot, in Initialization and ComputeMigrations
	// supersteps only; slots are read in ComputeScores supersteps only — a
	// vertex's own every iteration, its neighbours' in iteration 1. The
	// engine's barrier lies between any write and any read, which is all the
	// synchronization the array needs (as for the master state below).
	labels []int32
	seeded bool // labels came with the starting labels (a warm start); else Initialization draws them

	// Aggregator handles, set by register.
	aggLoads  pregel.Aggregator // persistent: b(l) per label (Eq. 6)
	aggCand   pregel.Aggregator // per-iteration: m(l), load wanting to migrate to l (Eq. 13)
	aggProbs  pregel.Aggregator // master-published migration probabilities (Eq. 14)
	aggScore  pregel.Aggregator // per-iteration: score(G) (Eq. 10)
	aggLocalW pregel.Aggregator // per-iteration: Σ_v (weight to same-label neighbors)
	aggMigs   pregel.Aggregator // per-iteration: number of migrations
	aggTotal  pregel.Aggregator // persistent: total load T = Σ_v deg_w(v)

	// Master state (written only in MasterCompute, read by workers in the
	// following superstep).
	phase      int
	iter       int // 1-based LPA iteration, set when entering ComputeScores
	totalLoad  float64
	capacities []float64 // C_l = c·T·f_l (Eq. 5; homogeneous f_l = 1/k)
	probs      []float64 // MasterCompute scratch: the migration probabilities it publishes

	pendingScore float64
	pendingPhi   float64
	pendingCand  float64
	history      []IterationMetrics
	bestScore    float64
	haveScore    bool
	steady       int
	converged    bool
}

// newProgram prepares a run over n vertices. start holds the starting
// labels of a warm start and becomes the run's label array (the program
// owns it from here on); nil means a from-scratch run, whose Initialization
// superstep draws them uniformly at random.
func newProgram(opts Options, n int, start []int32, affected []bool) *program {
	p := &program{opts: opts, k: opts.K, affected: affected,
		labels: start, seeded: start != nil, probs: make([]float64, opts.K)}
	if !p.seeded {
		p.labels = make([]int32, n)
	}
	return p
}

// register declares the aggregators on the engine. The names identify them
// to Engine.AggregatedValue; the program itself goes through the handles.
func (p *program) register(e *engine) {
	p.aggLoads = e.RegisterAggregator("loads", pregel.AggSum, p.k, true)
	p.aggCand = e.RegisterAggregator("cand", pregel.AggSum, p.k, false)
	p.aggProbs = e.RegisterAggregator("probs", pregel.AggSum, p.k, false)
	p.aggScore = e.RegisterAggregator("score", pregel.AggSum, 1, false)
	p.aggLocalW = e.RegisterAggregator("localw", pregel.AggSum, 1, false)
	p.aggMigs = e.RegisterAggregator("migs", pregel.AggSum, 1, false)
	p.aggTotal = e.RegisterAggregator("total", pregel.AggSum, 1, true)
}

// InitWorker implements pregel.WorkerInitializer. The scratch buffers are
// sized for k labels up front so the per-vertex hot path never grows them.
func (p *program) InitWorker(workerID, numWorkers int) any {
	return &workerScratch{
		refreshedAt: -1,
		localLoads:  padded[float64](p.k),
		penalty:     padded[float64](p.k),
		sum:         padded[int64](p.k),
		seen:        padded[uint64]((p.k + 63) / 64),
	}
}

// Compute implements pregel.Program.
func (p *program) Compute(ctx *computeCtx, v *vertex, msgs []msg) {
	switch p.phase {
	case phaseInitialization:
		p.initialize(ctx, v)
	case phaseComputeScores:
		p.computeScores(ctx, v, msgs)
	case phaseComputeMigrations:
		p.computeMigrations(ctx, v)
	}
}

// Draw sites. Every draw of a run belongs to one vertex and one superstep,
// and the site names which of the vertex's draws it is.
const (
	siteLabel = iota // Initialization: a from-scratch run's starting label
	siteTie          // ComputeScores: bestLabel's tie-breaks, in bar order
	siteCoin         // ComputeMigrations: the Eq. 14 coin
)

// rand returns the source of v's draws at site in this superstep, a pure
// function of (seed, superstep, vertex, site) (rng.At). No draw depends
// on which worker makes it, on the worker count or on what other vertices
// drew before it.
func (p *program) rand(ctx *computeCtx, v *vertex, site uint64) rng.Source {
	return rng.At(p.opts.Seed, uint64(ctx.Superstep())<<2|site, uint64(v.ID))
}

// initialize: settle the starting label in the vertex's slot of p.labels
// (a warm start seeded it; a from-scratch run draws it here), cache the
// weighted degree and contribute it to the load counters. Nothing is
// sent: the neighbours read the slot in iteration 1, after this superstep's
// barrier.
func (p *program) initialize(ctx *computeCtx, v *vertex) {
	var degW float64
	for _, a := range v.Edges {
		degW += float64(a.Weight)
	}
	if !p.seeded {
		r := p.rand(ctx, v, siteLabel)
		p.labels[v.ID] = r.Int31n(int32(p.k))
	}
	dirty := true
	if p.affected != nil {
		dirty = p.affected[v.ID]
	}
	ws := ctx.WorkerState().(*workerScratch)
	nw := len(ws.seen)
	v.Value = vval{cand: -1, degW: degW, dirty: dirty,
		hist: carve(&ws.bars, min(len(v.Edges), p.k)), held: carve(&ws.words, nw)[:nw]}
	ctx.Aggregate(p.aggLoads, int(p.labels[v.ID]), degW)
	ctx.Aggregate(p.aggTotal, 0, degW)
	ctx.CountEdges(len(v.Edges))
}

// buildHistogram runs once per vertex, in iteration 1. One scan of v's
// arcs reads every neighbour's starting label out of p.labels — the
// Initialization superstep wrote the slots and its barrier has passed;
// nothing writes them during ComputeScores — summing each label's weight in
// the worker's scratch and marking it in the worker's label bitmap; the
// bitmap becomes the vertex's held set, and a walk of its set bits emits
// the bars in label order, with no sort.
func (p *program) buildHistogram(ws *workerScratch, v *vertex) {
	for _, a := range v.Edges {
		l := p.labels[a.To]
		ws.sum[l] += int64(a.Weight)
		ws.seen[l>>6] |= 1 << (l & 63)
	}
	h := v.Value.hist[:0]
	for i, word := range ws.seen {
		v.Value.held[i] = word
		for ; word != 0; word &= word - 1 {
			l := i<<6 + bits.TrailingZeros64(word)
			h = append(h, ws.sum[l])
			ws.sum[l] = 0
		}
		ws.seen[i] = 0
	}
	v.Value.hist = h
}

// rank returns the index of label l's bar in a histogram sorted by label
// whose labels are the set bits of held — the number of set bits below l —
// and whether l has a bar. The loop runs only for l ≥ 64.
func rank(held []uint64, l int32) (int, bool) {
	word, bit := held[l>>6], uint64(1)<<(l&63)
	n := bits.OnesCount64(word & (bit - 1))
	for _, below := range held[:l>>6] {
		n += bits.OnesCount64(below)
	}
	return n, word&bit != 0
}

// move applies one migration announcement to v's histogram: m.w leaves bar
// m.old and joins bar m.new, and the bars stay sorted by label. Weights are
// positive (graph.Weighted's invariant), so a bar is empty exactly at weight
// 0 and is then dropped. The sender's arc weighs what v's arc to it weighs,
// so bar m.old holds at least m.w; if it does not, the rows were not mirror
// images and the histogram cannot be trusted.
func move(v *vertex, m msg) {
	h, held, w := v.Value.hist, v.Value.held, int64(m.w)
	i, ok := rank(held, m.old)
	if !ok || h[i] < w {
		panic(fmt.Sprintf("core: vertex %d heard a neighbour move %d from label %d to %d, but its bar for %d holds less: "+
			"the graph's rows do not mirror each other", v.ID, m.w, m.old, m.new, m.old))
	}
	h[i] -= w
	emptied := h[i] == 0
	if emptied {
		held[m.old>>6] &^= 1 << (m.old & 63)
	}
	j, ok := rank(held, m.new) // counting no emptied bar m.old
	switch {
	case ok:
		if emptied {
			h = slices.Delete(h, i, i+1)
		}
	case !emptied:
		h = slices.Insert(h, j, 0) // within capacity: at most min(deg, k) distinct labels
	case j > i: // bar m.old leaves and bar m.new arrives: the bars between shift once
		copy(h[i:j], h[i+1:j+1])
	case j < i:
		copy(h[j+1:i+1], h[j:i])
	}
	if !ok {
		held[m.new>>6] |= 1 << (m.new & 63)
		h[j] = 0
	}
	h[j] += w
	v.Value.hist = h
}

// computeScores is the first superstep of an LPA iteration: each vertex
// refreshes its view of neighbor labels — in iteration 1 by reading their
// starting labels, afterwards from the announcements of those that
// migrated — evaluates score”(v, l) (Eq. 8) for every label in its
// neighborhood, and becomes a migration candidate if some label beats its
// current one.
func (p *program) computeScores(ctx *computeCtx, v *vertex, msgs []msg) {
	ws := ctx.WorkerState().(*workerScratch)
	if ws.refreshedAt != ctx.Superstep() {
		ctx.AggregatedVector(p.aggLoads, ws.localLoads)
		p.refreshPenalties(ws)
		ws.refreshedAt = ctx.Superstep()
	}
	updates := len(msgs)
	if p.iter == 1 {
		p.buildHistogram(ws, v)
		updates = len(v.Edges) // one label read per arc
	} else if len(msgs) > 0 {
		// A neighbor migrated (§III-D: that, not reading its starting label,
		// is what makes a vertex affected).
		for _, m := range msgs {
			move(v, m)
		}
		v.Value.dirty = true
	}
	ctx.CountEdges(len(v.Edges) + updates)

	cur := p.labels[v.ID]
	degW := v.Value.degW
	curScore, curW, movable := ws.scoreCurrent(v.Value.hist, v.Value.held, cur, degW)
	ctx.Aggregate(p.aggScore, 0, curScore)
	ctx.Aggregate(p.aggLocalW, 0, curW)

	// A vertex that stays votes to halt, so only candidates compute in the
	// ComputeMigrations superstep. A clean vertex (AffectedOnly) does not
	// evaluate migration; nor does one that no label can beat.
	v.Value.cand = -1
	if p.opts.AffectedOnly && !v.Value.dirty || !movable {
		v.VoteToHalt()
		return
	}
	r := p.rand(ctx, v, siteTie)
	best := bestLabel(ws.penalty, v.Value.hist, v.Value.held, cur, curScore, degW, &r)
	if best == cur {
		v.VoteToHalt()
		return
	}
	v.Value.cand = best
	ctx.Aggregate(p.aggCand, int(best), degW)
	p.tentativeMove(ws, cur, best, degW)
}

// tieEps is the margin within which two scores tie.
const tieEps = 1e-12

// scoreCurrent returns score”(v, cur) (Eq. 8) and the weight of cur's
// bar, and whether another label could beat cur: false when even the
// heaviest other bar at the highest penalty (penaltyUB) scores at most
// curScore−tieEps. Rounding is monotone, so every bar then does too, and
// bestLabel would neither pick a label, nor tie, nor draw.
func (ws *workerScratch) scoreCurrent(hist []int64, held []uint64, cur int32, degW float64) (curScore, curW float64, movable bool) {
	i, ok := rank(held, cur)
	rest := hist[i:]
	if ok {
		curW, rest = float64(hist[i]), hist[i+1:]
	}
	var wmax int64
	for _, w := range hist[:i] {
		wmax = max(wmax, w)
	}
	for _, w := range rest {
		wmax = max(wmax, w)
	}
	curScore = labelScore(ws.penalty[cur], curW, degW)
	return curScore, curW, labelScore(ws.penaltyUB, float64(wmax), degW) > curScore-tieEps
}

// bestLabel finds the best label among the neighborhood labels and the
// current label, with the paper's tie-break: prefer the current label,
// else choose uniformly among the tied maxima (reservoir sampling). The
// bars come in label order, which fixes the sequence of tie draws; the
// walk of held's set bits names each bar's label in step.
//
// score”(v, l) = w(v, l)/degW − b(l)/C  (Eq. 8), w(v, l) the bar of l.
// When degW is zero the locality term is defined as 0 and only the
// penalty counts; such a vertex has no bars, so it never moves.
func bestLabel(penalty []float64, hist []int64, held []uint64, cur int32, curScore, degW float64, rnd *rng.Source) int32 {
	best := cur
	bestScore := curScore
	var ties int
	i := 0
	for wi, word := range held {
		for ; word != 0; word &= word - 1 {
			l, weight := int32(wi<<6+bits.TrailingZeros64(word)), hist[i]
			i++
			if l == cur {
				continue
			}
			s := labelScore(penalty[l], float64(weight), degW)
			switch {
			case s > bestScore+tieEps:
				best, bestScore, ties = l, s, 1
			case s > bestScore-tieEps: // tie
				if best == cur {
					continue // keep current on ties
				}
				ties++
				if rnd.Intn(ties) == 0 {
					best = l
				}
			}
		}
	}
	return best
}

// tentativeMove is the asynchronous per-worker view (§IV-A4): subsequent
// vertices on this worker see a candidate's move from cur to best. Only
// cur's load falls, so only penalty[cur] can raise the bound.
func (p *program) tentativeMove(ws *workerScratch, cur, best int32, degW float64) {
	ws.localLoads[best] += degW
	ws.localLoads[cur] -= degW
	p.setPenalty(ws, best)
	p.setPenalty(ws, cur)
	ws.penaltyUB = max(ws.penaltyUB, ws.penalty[cur])
}

// labelScore evaluates score”(v, l) (Eq. 8) from the penalty of l and the
// weight w of v's edges to l.
func labelScore(penalty, w, degW float64) float64 {
	if degW > 0 {
		return penalty + w/degW
	}
	return penalty
}

// setPenalty recomputes the balance term of label l from the worker's view
// of its load.
func (p *program) setPenalty(ws *workerScratch, l int32) {
	ws.penalty[l] = -ws.localLoads[l] / p.capacities[l]
}

// refreshPenalties recomputes every balance term from localLoads, and the
// bound exactly.
func (p *program) refreshPenalties(ws *workerScratch) {
	ws.penaltyUB = math.Inf(-1)
	for l := range ws.penalty {
		p.setPenalty(ws, int32(l))
		ws.penaltyUB = max(ws.penaltyUB, ws.penalty[l])
	}
}

// computeMigrations is the second superstep of an iteration: each candidate
// migrates with probability p = r(l)/m(l) (Eq. 14), updates the load
// counters, and announces the move along every arc.
func (p *program) computeMigrations(ctx *computeCtx, v *vertex) {
	cand := v.Value.cand
	if cand < 0 {
		return
	}
	prob := 1.0
	if !p.opts.UnboundedMigration {
		prob = ctx.AggregatedValue(p.aggProbs, int(cand))
	}
	if prob < 1 {
		if r := p.rand(ctx, v, siteCoin); !r.Bool(prob) {
			return // retry in a later iteration
		}
	}
	old := p.labels[v.ID]
	p.labels[v.ID] = cand
	ctx.Aggregate(p.aggLoads, int(old), -v.Value.degW)
	ctx.Aggregate(p.aggLoads, int(cand), v.Value.degW)
	ctx.Aggregate(p.aggMigs, 0, 1)
	out := ctx.Outbox()
	for _, a := range v.Edges {
		out.Send(a.To, msg{old: old, new: cand, w: a.Weight})
	}
	ctx.CountEdges(len(v.Edges))
}

// MasterCompute implements pregel.MasterProgram: it advances the phase
// machine, computes the migration probabilities, records per-iteration
// metrics, and applies the (ε, w) halting heuristic.
func (p *program) MasterCompute(m *pregel.Master) {
	switch p.phase {
	case phaseInitialization:
		p.totalLoad = m.Agg(p.aggTotal)[0]
		if p.totalLoad == 0 {
			// Edgeless graph: any labeling is optimal.
			p.converged = true
			m.Halt()
			return
		}
		p.capacities = make([]float64, p.k)
		for l := 0; l < p.k; l++ {
			f := 1 / float64(p.k)
			if p.opts.CapacityFractions != nil {
				f = p.opts.CapacityFractions[l]
			}
			p.capacities[l] = p.opts.C * p.totalLoad * f
		}
		p.phase = phaseComputeScores
		p.iter = 1

	case phaseComputeScores:
		// Publish migration probabilities for the coming superstep.
		loads := m.Agg(p.aggLoads)
		cand := m.Agg(p.aggCand)
		probs := p.probs
		var candTotal float64
		for l := 0; l < p.k; l++ {
			candTotal += cand[l]
			r := p.capacities[l] - loads[l]
			switch {
			case cand[l] <= 0 || r >= cand[l]:
				probs[l] = 1
			case r <= 0:
				probs[l] = 0
			default:
				probs[l] = r / cand[l]
			}
		}
		m.SetAgg(p.aggProbs, probs)
		p.pendingScore = m.Agg(p.aggScore)[0]
		p.pendingPhi = m.Agg(p.aggLocalW)[0] / p.totalLoad
		p.pendingCand = candTotal
		p.phase = phaseComputeMigrations
		if candTotal == 0 {
			// Every vertex voted to halt; the ComputeMigrations superstep
			// still runs, so the iteration is recorded as any other.
			m.WakeAll()
		}

	case phaseComputeMigrations:
		loads := m.Agg(p.aggLoads)
		maxLoad := 0.0
		for _, b := range loads {
			if b > maxLoad {
				maxLoad = b
			}
		}
		rho := maxLoad / (p.totalLoad / float64(p.k))
		p.history = append(p.history, IterationMetrics{
			Iteration:     p.iter,
			Score:         p.pendingScore,
			Phi:           p.pendingPhi,
			Rho:           rho,
			Migrations:    int64(m.Agg(p.aggMigs)[0]),
			CandidateLoad: p.pendingCand,
		})

		// Halting heuristic (§III-C): the run is in a steady state once the
		// score fails to improve on its best value by more than ε
		// (relative) for w consecutive iterations. Comparing against the
		// best — not the previous — score makes plateau oscillations
		// (§III-C's limit-cycle concern) count as steady instead of
		// resetting the window.
		if p.haveScore {
			denom := math.Max(math.Abs(p.bestScore), 1)
			if (p.pendingScore-p.bestScore)/denom < p.opts.Epsilon {
				p.steady++
			} else {
				p.steady = 0
			}
		}
		if !p.haveScore || p.pendingScore > p.bestScore {
			p.bestScore = p.pendingScore
		}
		p.haveScore = true

		if p.steady >= p.opts.W {
			p.converged = true
			m.Halt()
			return
		}
		if p.iter >= p.opts.MaxIterations {
			m.Halt()
			return
		}
		p.iter++
		p.phase = phaseComputeScores
		m.WakeAll()
	}
}
