package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro"
)

// batchConfig sizes the two library workloads. The full sizes are the
// issue's; tests run the same code at n = 2 000.
type batchConfig struct {
	wsN, wsDeg int
	wsBeta     float64
	baN, baM   int
	k, newK    int
	setups     int // graph generations per partition-scratch run; setup_s is their median
	minReps    int // timed repetitions at least, whatever -seconds says
	maxReps    int
}

// fullBatch: Watts–Strogatz n=200 000, out-degree 16, β=0.3 is the
// paper's §V-B scalability graph; Barabási–Albert n=100 000, m=10 is
// hub-skewed, where the balance constraint binds (and the slower of the
// two per edge). k=32 → 40 is Fig. 8's
// "add a quarter more partitions".
var fullBatch = batchConfig{
	wsN: 200_000, wsDeg: 16, wsBeta: 0.3, baN: 100_000, baM: 10,
	k: 32, newK: 40, setups: 3, minReps: 2, maxReps: 5,
}

// numWorkers is pinned so iteration and message counts repeat on hosts
// with different core counts (§IV-A4: results depend on the worker count).
const numWorkers = 2

type runConfig struct {
	seed    uint64
	seconds float64
	tr      *tracer
}

type namedGraph struct {
	name string
	g    *repro.Graph
}

func (bc batchConfig) graphs(seed uint64) []namedGraph {
	return []namedGraph{
		{"ws", repro.WattsStrogatz(bc.wsN, bc.wsDeg, bc.wsBeta, seed)},
		{"ba", barabasiAlbert(bc.baN, bc.baM, seed)},
	}
}

func partitioner(k int, seed uint64) (*repro.Partitioner, error) {
	o := repro.DefaultOptions(k) // the paper's c=1.05, ε=0.001, w=5
	o.Seed = seed
	o.NumWorkers = numWorkers
	return repro.NewPartitioner(o)
}

// memDelta is what one call allocated, from runtime.MemStats around it.
type memDelta struct{ bytes, mallocs uint64 }

func measureAlloc(on bool, fn func()) memDelta {
	if !on {
		fn()
		return memDelta{}
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return memDelta{b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs}
}

// series holds one quantity per repetition for each graph; sumMedians is
// how a per-graph series becomes one number: the median over repetitions,
// summed over the graphs (each graph is partitioned once per user request).
type series [][]float64

func (s series) add(graph int, v float64) { s[graph] = append(s[graph], v) }

func (s series) sumMedians() float64 {
	sum := 0.0
	for _, g := range s {
		sum += median(g)
	}
	return sum
}

func (s series) meanOfLast() float64 {
	var last []float64
	for _, g := range s {
		if len(g) > 0 {
			last = append(last, g[len(g)-1])
		}
	}
	return mean(last)
}

// checkLabels applies the checks every labeling must pass: labels in
// [0,k), balance within ρ ≤ 1.10, locality well above a random
// assignment's 1/k, and bit-identical to the previous repetition.
func checkLabels(rep *report, what string, w *repro.Weighted, labels []int32, k int, prev []int32) (phi, rho float64) {
	inRange := len(labels) == w.NumVertices()
	for _, l := range labels {
		if l < 0 || int(l) >= k {
			inRange = false
			break
		}
	}
	rep.check(inRange, "%s: labels outside [0,%d) or wrong length %d", what, k, len(labels))
	if !inRange {
		return 0, 0
	}
	phi, rho = repro.Phi(w, labels), repro.Rho(w, labels, k)
	rep.check(rho <= 1.10, "%s: ρ = %.4f > 1.10", what, rho)
	rep.check(phi >= 3/float64(k), "%s: φ = %.4f < 3/k", what, phi)
	if prev != nil {
		rep.check(slices.Equal(prev, labels), "%s: repetition not bit-identical to the previous one", what)
	}
	return phi, rho
}

// repeat runs body until the measuring time is used up, within the
// configured repetition limits, and returns how many times it ran.
func (bc batchConfig) repeat(seconds float64, body func(rep int) error) (int, error) {
	start := time.Now()
	n := 0
	for n < bc.minReps || (n < bc.maxReps && time.Since(start).Seconds() < seconds) {
		// Every repetition starts from a collected heap, so none inherits
		// the previous one's garbage (as testing.B does between runs).
		runtime.GC()
		if err := body(n); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// runPartitionScratch: Convert + PartitionWeighted from scratch on both
// graphs — the paper's headline use, all of it in graph/core/pregel.
func runPartitionScratch(cfg runConfig, bc batchConfig, rep *report) error {
	tr := cfg.tr
	var graphs []namedGraph
	var setups []float64
	for i := 0; i < bc.setups; i++ {
		setups = append(setups, tr.timed("setup", -1, int64(i), func() { graphs = bc.graphs(cfg.seed) }).Seconds())
	}
	p, err := partitioner(bc.k, cfg.seed)
	if err != nil {
		return err
	}

	ng := len(graphs)
	total, convert, part, superstep, firstIter := make(series, ng), make(series, ng), make(series, ng), make(series, ng), make(series, ng)
	allocMB, allocsK, phis, rhos := make(series, ng), make(series, ng), make(series, ng), make(series, ng)
	var supersteps, messages, iterations, edges int64
	prev := make([][]int32, ng)
	once := func(r int) error {
		for gi, ng := range graphs {
			root := tr.begin("partition."+ng.name, -1, int64(r))
			var w *repro.Weighted
			var res *repro.Result
			var err error
			tc := tr.timed("graph.convert", root, int64(r), func() { w = repro.Convert(ng.g) })
			var tp time.Duration
			mem := measureAlloc(tr != nil, func() {
				tp = tr.timed("core.partition", root, int64(r), func() { res, err = p.PartitionWeighted(w) })
			})
			tr.end(root)
			rep.ops(1, 0)
			if err != nil {
				return fmt.Errorf("partition %s: %w", ng.name, err)
			}
			phi, rho := checkLabels(rep, "partition "+ng.name, w, res.Labels, bc.k, prev[gi])
			prev[gi] = res.Labels
			total.add(gi, (tc + tp).Seconds())
			convert.add(gi, tc.Seconds())
			part.add(gi, tp.Seconds())
			sum := time.Duration(0)
			for _, d := range res.SuperstepDurations {
				sum += d
			}
			superstep.add(gi, sum.Seconds())
			firstIter.add(gi, res.FirstIterationTime().Seconds()*1e3)
			allocMB.add(gi, float64(mem.bytes)/1e6)
			allocsK.add(gi, float64(mem.mallocs)/1e3)
			phis.add(gi, phi)
			rhos.add(gi, rho)
			if r == 0 {
				supersteps += int64(res.Supersteps)
				messages += res.Messages
				iterations += int64(res.Iterations)
				edges += w.NumEdges()
			}
		}
		return nil
	}
	// No warm-up is discarded: cmd/spinner partitions once per process, so
	// its users pay the first repetition's cold start every time, and the
	// median tolerates it.
	if _, err := bc.repeat(cfg.seconds, once); err != nil {
		return err
	}

	partitionS := total.sumMedians()
	rep.set("setup_s", median(setups))
	rep.set("op_p50_ms", partitionS*1e3)
	rep.set("op_slow_ms", median(total[len(total)-1])*1e3) // the hub-skewed graph alone
	rep.set("rate_per_s", ratio(float64(edges), partitionS))
	rep.set("phi", phis.meanOfLast())

	rep.set("graph.convert_s", convert.sumMedians())
	rep.set("core.partition_s", part.sumMedians())
	rep.set("core.partition_cold_s", coldSum(total))
	rep.set("pregel.superstep_s", superstep.sumMedians())
	rep.set("core.load_s", part.sumMedians()-superstep.sumMedians())
	rep.set("pregel.supersteps", float64(supersteps))
	rep.set("pregel.messages", float64(messages))
	rep.set("pregel.msgs_per_s", ratio(float64(messages), superstep.sumMedians()))
	rep.set("pregel.first_iteration_ms", firstIter.sumMedians())
	rep.set("core.iterations", float64(iterations))
	rep.set("core.phi", phis.meanOfLast())
	rep.set("core.rho", rhos.meanOfLast())
	rep.set("core.alloc_mb", allocMB.sumMedians())
	rep.set("core.allocs_k", allocsK.sumMedians())
	return nil
}

// coldSum is the first repetition's time summed over the graphs.
func coldSum(s series) float64 {
	sum := 0.0
	for _, g := range s {
		sum += g[0]
	}
	return sum
}

// baseline is one graph's adapt-elastic starting point, built in set-up.
type baseline struct {
	name   string
	w      *repro.Weighted
	labels []int32 // converged k-way labels of w
	phi    float64
	msgs   int64 // messages the from-scratch run took (Fig. 7a's base)
	mut    *repro.Mutation
}

func (bc batchConfig) baselines(seed uint64) ([]baseline, error) {
	p, err := partitioner(bc.k, seed)
	if err != nil {
		return nil, err
	}
	var out []baseline
	for _, ng := range bc.graphs(seed) {
		w := repro.Convert(ng.g)
		res, err := p.PartitionWeighted(w)
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", ng.name, err)
		}
		out = append(out, baseline{ng.name, w, res.Labels, repro.Phi(w, res.Labels), res.Messages, growth(w, seed)})
	}
	return out, nil
}

// runAdaptElastic: the same core/pregel layer from a warm start — grow the
// graph and Adapt (§III-D), and Resize k → newK on the unmutated graph
// (§III-E) — where few vertices move and the halting window dominates.
func runAdaptElastic(cfg runConfig, bc batchConfig, rep *report) error {
	tr := cfg.tr
	// One set-up per run: the baseline partitionings cost a fifth of the
	// measuring time as it is, which repeating them would take from the
	// repetitions.
	var bases []baseline
	var err error
	setupS := tr.timed("setup", -1, 0, func() { bases, err = bc.baselines(cfg.seed) }).Seconds()
	if err != nil {
		return err
	}
	pAdapt, err := partitioner(bc.k, cfg.seed)
	if err != nil {
		return err
	}
	pResize, err := partitioner(bc.newK, cfg.seed)
	if err != nil {
		return err
	}

	ng := len(bases)
	adaptS, resizeS, applyMS := make(series, ng), make(series, ng), make(series, ng)
	adaptPhi, resizePhi, adaptMoved, resizeMoved, rhos := make(series, ng), make(series, ng), make(series, ng), make(series, ng), make(series, ng)
	var adaptMsgs, resizeMsgs, scratchMsgs, adaptIters, resizeIters, edges int64
	prevAdapt, prevResize := make([][]int32, ng), make([][]int32, ng)
	_, err = bc.repeat(cfg.seconds, func(r int) error {
		for gi, b := range bases {
			grown := b.w.Clone()
			var res *repro.Result
			var err error
			root := tr.begin("adapt."+b.name, -1, int64(r))
			ta := tr.timed("graph.mutation_apply", root, int64(r), func() { _, err = b.mut.Apply(grown) })
			if err != nil {
				return fmt.Errorf("apply growth to %s: %w", b.name, err)
			}
			td := tr.timed("core.adapt", root, int64(r), func() { res, err = pAdapt.Adapt(grown, b.labels, nil) })
			tr.end(root)
			rep.ops(1, 0)
			if err != nil {
				return fmt.Errorf("adapt %s: %w", b.name, err)
			}
			phi, rho := checkLabels(rep, "adapt "+b.name, grown, res.Labels, bc.k, prevAdapt[gi])
			rep.check(phi >= 0.90*b.phi, "adapt %s: φ %.4f < 0.90 × scratch φ %.4f", b.name, phi, b.phi)
			prevAdapt[gi] = res.Labels
			applyMS.add(gi, ta.Seconds()*1e3)
			adaptS.add(gi, (ta + td).Seconds())
			adaptPhi.add(gi, phi)
			rhos.add(gi, rho)
			adaptMoved.add(gi, repro.Difference(b.labels, res.Labels[:len(b.labels)]))
			if r == 0 {
				adaptMsgs += res.Messages
				scratchMsgs += b.msgs
				adaptIters += int64(res.Iterations)
				edges += grown.NumEdges()
			}

			tz := tr.timed("core.resize", -1, int64(r), func() { res, err = pResize.Resize(b.w, b.labels, bc.k) })
			rep.ops(1, 0)
			if err != nil {
				return fmt.Errorf("resize %s: %w", b.name, err)
			}
			phi, _ = checkLabels(rep, "resize "+b.name, b.w, res.Labels, bc.newK, prevResize[gi])
			rep.check(phi >= 0.90*b.phi, "resize %s: φ %.4f < 0.90 × scratch φ %.4f", b.name, phi, b.phi)
			prevResize[gi] = res.Labels
			resizeS.add(gi, tz.Seconds())
			resizePhi.add(gi, phi)
			resizeMoved.add(gi, repro.Difference(b.labels, res.Labels))
			if r == 0 {
				resizeMsgs += res.Messages
				resizeIters += int64(res.Iterations)
				edges += b.w.NumEdges()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	rep.set("setup_s", setupS)
	rep.set("op_p50_ms", adaptS.sumMedians()*1e3)
	rep.set("op_slow_ms", resizeS.sumMedians()*1e3)
	rep.set("rate_per_s", ratio(float64(edges), adaptS.sumMedians()+resizeS.sumMedians()))
	rep.set("phi", (adaptPhi.meanOfLast()+resizePhi.meanOfLast())/2)

	rep.set("graph.mutation_apply_ms", applyMS.sumMedians())
	rep.set("core.adapt_s", adaptS.sumMedians())
	rep.set("core.resize_s", resizeS.sumMedians())
	rep.set("pregel.adapt_messages", float64(adaptMsgs))
	rep.set("pregel.resize_messages", float64(resizeMsgs))
	rep.set("core.adapt_iterations", float64(adaptIters))
	rep.set("core.resize_iterations", float64(resizeIters))
	rep.set("core.rho", rhos.meanOfLast())
	rep.set("core.adapt_phi", adaptPhi.meanOfLast())
	rep.set("core.resize_phi", resizePhi.meanOfLast())
	rep.set("core.adapt_moved_frac", adaptMoved.meanOfLast())
	rep.set("core.resize_moved_frac", resizeMoved.meanOfLast())
	rep.set("core.adapt_msg_saving", 1-ratio(float64(adaptMsgs), float64(scratchMsgs)))
	return nil
}
