// Package experiments regenerates every table and figure of the Spinner
// paper's evaluation (§V) on the synthetic dataset analogues, printing rows
// in the same shape the paper reports. Each Table*/Fig* function returns
// structured results so tests and benchmarks can assert on the shape
// (who wins, by roughly what factor) and writes a human-readable rendition
// to the configured writer.
//
// cmd/experiments runs one experiment by name (-exp table4, -exp fig4, …).
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/apps"
	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// Config scales and seeds an experiment run.
type Config struct {
	// Scale is the vertex count for dataset analogues (default 20 000).
	Scale int
	// Seed drives every random choice.
	Seed uint64
	// Workers is the Pregel worker count (default GOMAXPROCS).
	Workers int
	// Out receives the rendered rows; nil discards them.
	Out io.Writer
}

func (c Config) scale() int {
	if c.Scale <= 0 {
		return 20000
	}
	return c.Scale
}

func (c Config) printf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

// spinnerOpts returns the paper's standard configuration.
func (c Config) spinnerOpts(k int) core.Options {
	o := core.DefaultOptions(k)
	o.Seed = c.Seed
	o.NumWorkers = c.Workers
	return o
}

// runSpinner partitions w with Spinner and returns labels plus the result.
func (c Config) runSpinner(w *graph.Weighted, k int) (*core.Result, error) {
	p, err := core.NewPartitioner(c.spinnerOpts(k))
	if err != nil {
		return nil, err
	}
	return p.PartitionWeighted(w)
}

// --- Table I: comparison with the state of the art -----------------------

// Table1Row is one (approach, k) cell pair of Table I.
type Table1Row struct {
	Approach string
	K        int
	Phi      float64
	Rho      float64
}

// Table1 compares Spinner against Wang et al. (LPACoarsen), Stanton et al.
// (LDG), Fennel and METIS (Multilevel) on a Twitter-like graph for
// k ∈ {2,4,8,16,32}.
func Table1(cfg Config) ([]Table1Row, error) {
	g := gen.Load(gen.TwitterLike, cfg.scale(), cfg.Seed)
	w := graph.Convert(g)
	ks := []int{2, 4, 8, 16, 32}
	type namedPartitioner struct {
		name string
		fn   func(k int) ([]int32, error)
	}
	parts := []namedPartitioner{
		{"Wang et al.", func(k int) ([]int32, error) {
			return baselines.LPACoarsen{Seed: cfg.Seed}.Partition(w, k), nil
		}},
		{"Stanton et al.", func(k int) ([]int32, error) {
			return baselines.LDG{Seed: cfg.Seed}.Partition(w, k), nil
		}},
		{"Fennel", func(k int) ([]int32, error) {
			return baselines.Fennel{Seed: cfg.Seed}.Partition(w, k), nil
		}},
		{"Metis", func(k int) ([]int32, error) {
			return baselines.Multilevel{Seed: cfg.Seed}.Partition(w, k), nil
		}},
		{"Spinner", func(k int) ([]int32, error) {
			res, err := cfg.runSpinner(w, k)
			if err != nil {
				return nil, err
			}
			return res.Labels, nil
		}},
	}
	cfg.printf("Table I — Twitter-like graph (n=%d, |E|=%d)\n%-16s", w.NumVertices(), w.NumEdges(), "Approach")
	for _, k := range ks {
		cfg.printf("  k=%-3d φ    ρ  ", k)
	}
	cfg.printf("\n")
	var rows []Table1Row
	for _, p := range parts {
		cfg.printf("%-16s", p.name)
		for _, k := range ks {
			labels, err := p.fn(k)
			if err != nil {
				return nil, fmt.Errorf("table1 %s k=%d: %w", p.name, k, err)
			}
			phi := metrics.Phi(w, labels)
			rho := metrics.Rho(w, labels, k)
			rows = append(rows, Table1Row{Approach: p.name, K: k, Phi: phi, Rho: rho})
			cfg.printf("  %.2f %.2f  ", phi, rho)
		}
		cfg.printf("\n")
	}
	return rows, nil
}

// --- Table III: balance per graph ----------------------------------------

// Table3Row is the average ρ for one dataset analogue.
type Table3Row struct {
	Dataset gen.Dataset
	Rho     float64
}

// Table3 partitions every social-graph analogue into 32 parts and reports
// the resulting maximum normalized load.
func Table3(cfg Config) ([]Table3Row, error) {
	cfg.printf("Table III — partitioning balance (k=32)\n")
	var rows []Table3Row
	for _, d := range gen.AllDatasets {
		g := gen.Load(d, cfg.scale(), cfg.Seed)
		w := graph.Convert(g)
		res, err := cfg.runSpinner(w, 32)
		if err != nil {
			return nil, fmt.Errorf("table3 %s: %w", d, err)
		}
		rho := metrics.Rho(w, res.Labels, 32)
		rows = append(rows, Table3Row{Dataset: d, Rho: rho})
		cfg.printf("  %-4s ρ=%.3f\n", d, rho)
	}
	return rows, nil
}

// --- Table IV: worker load balance under PageRank ------------------------

// Table4Row is one placement strategy's superstep timing summary.
type Table4Row struct {
	Approach string
	Summary  cluster.Summary
}

// Table4 runs 20 PageRank iterations on the Twitter-like graph under hash
// placement and Spinner placement and prices the supersteps with the
// cluster cost model, reproducing the Mean/Max/Min worker times.
func Table4(cfg Config) ([]Table4Row, error) {
	g := gen.Load(gen.TwitterLike, cfg.scale(), cfg.Seed)
	w := graph.Convert(g)
	// The paper runs 256 partitions on 256 workers: one partition per
	// worker, so a hub-heavy partition translates directly into a slow
	// worker. The skew effect requires per-worker load to be small relative
	// to a hub's traffic, so the simulated worker count stays high
	// regardless of the local GOMAXPROCS (workers are goroutines; superstep
	// time is priced by the cost model, not measured).
	const workers = 64
	k := workers
	res, err := cfg.runSpinner(w, k)
	if err != nil {
		return nil, err
	}
	model := cluster.Default()
	var rows []Table4Row
	cfg.printf("Table IV — PageRank superstep worker times (k=%d, %d workers)\n", k, workers)
	for _, p := range []struct {
		name      string
		placement func(graph.VertexID) int
	}{
		{"Random", apps.HashPlacement(workers)},
		{"Spinner", apps.PlacementFromLabels(res.Labels, workers)},
	} {
		_, appRes, err := apps.PageRank(g, 20, apps.RunConfig{NumWorkers: workers, Placement: p.placement})
		if err != nil {
			return nil, fmt.Errorf("table4 %s: %w", p.name, err)
		}
		sum := model.Summarize(appRes.Stats)
		rows = append(rows, Table4Row{Approach: p.name, Summary: sum})
		cfg.printf("  %-8s %s\n", p.name, sum)
	}
	return rows, nil
}

// --- Figure 3: locality vs number of partitions ---------------------------

// Fig3Row is one (dataset, k) measurement.
type Fig3Row struct {
	Dataset     gen.Dataset
	K           int
	Phi         float64
	HashPhi     float64
	Improvement float64 // Phi / HashPhi
}

// Fig3 sweeps the number of partitions over 2..maxK (powers of two) for
// every dataset analogue, measuring Spinner's locality (Fig. 3a) and its
// improvement over hash partitioning (Fig. 3b).
func Fig3(cfg Config, maxK int) ([]Fig3Row, error) {
	if maxK <= 0 {
		maxK = 512
	}
	var rows []Fig3Row
	cfg.printf("Figure 3 — locality vs number of partitions\n")
	for _, d := range gen.AllDatasets {
		g := gen.Load(d, cfg.scale(), cfg.Seed)
		w := graph.Convert(g)
		for k := 2; k <= maxK; k *= 2 {
			res, err := cfg.runSpinner(w, k)
			if err != nil {
				return nil, fmt.Errorf("fig3 %s k=%d: %w", d, k, err)
			}
			phi := metrics.Phi(w, res.Labels)
			hashPhi := metrics.Phi(w, baselines.Hash{}.Partition(w, k))
			if hashPhi <= 0 {
				hashPhi = 1e-9
			}
			rows = append(rows, Fig3Row{Dataset: d, K: k, Phi: phi, HashPhi: hashPhi, Improvement: phi / hashPhi})
			cfg.printf("  %-4s k=%-4d φ=%.3f  hash φ=%.3f  improvement=%.1fx\n", d, k, phi, hashPhi, phi/hashPhi)
		}
	}
	return rows, nil
}

// --- Figure 4: metric evolution across iterations -------------------------

// Fig4Series is the per-iteration trace for one graph.
type Fig4Series struct {
	Name    string
	History []core.IterationMetrics
	// Granularity is maxDeg_w/(T/k); final ρ can never drop below roughly
	// this value because the heaviest vertex is indivisible (negligible at
	// paper scale, material at laptop scale).
	Granularity float64
}

// Fig4 partitions the Twitter-like graph (hub-skewed, panel a) and the
// Yahoo-like web graph (panel b) and returns the φ/ρ/score evolution.
func Fig4(cfg Config) ([]Fig4Series, error) {
	var out []Fig4Series
	for _, d := range []gen.Dataset{gen.TwitterLike, gen.YahooLike} {
		g := gen.Load(d, cfg.scale(), cfg.Seed)
		w := graph.Convert(g)
		k := 32
		var totalLoad, maxDeg float64
		for v := 0; v < w.NumVertices(); v++ {
			dw := float64(w.WeightedDegree(graph.VertexID(v)))
			totalLoad += dw
			if dw > maxDeg {
				maxDeg = dw
			}
		}
		res, err := cfg.runSpinner(w, k)
		if err != nil {
			return nil, fmt.Errorf("fig4 %s: %w", d, err)
		}
		out = append(out, Fig4Series{Name: string(d), History: res.History,
			Granularity: maxDeg / (totalLoad / float64(k))})
		cfg.printf("Figure 4 — %s (k=%d): %d iterations\n  iter    φ      ρ     score\n", d, k, len(res.History))
		for _, it := range res.History {
			cfg.printf("  %4d  %.3f  %.3f  %.1f\n", it.Iteration, it.Phi, it.Rho, it.Score)
		}
	}
	return out, nil
}

// --- Figure 5: impact of the additional capacity c ------------------------

// Fig5Row is one (c, k) measurement averaged over runs.
type Fig5Row struct {
	C          float64
	K          int
	AvgRho     float64
	MaxRho     float64
	Iterations float64
	// Granularity is maxDeg_w/(T/k): the largest single vertex's load as a
	// fraction of the ideal partition load. ρ ≤ c only holds up to this
	// term — at the paper's scale (4.8M-vertex LiveJournal) it is
	// negligible, at laptop scale it is not, so rows carry it explicitly.
	Granularity float64
}

// Fig5 varies c over {1.02, 1.05, 1.10, 1.20} and k over {8..64} on the
// LiveJournal-like graph, measuring final ρ (panel a: ρ ≤ c) and
// iterations to converge (panel b: larger c converges faster).
func Fig5(cfg Config, runs int) ([]Fig5Row, error) {
	if runs <= 0 {
		runs = 3
	}
	g := gen.Load(gen.LiveJournalLike, cfg.scale(), cfg.Seed)
	w := graph.Convert(g)
	var totalLoad, maxDeg float64
	for v := 0; v < w.NumVertices(); v++ {
		d := float64(w.WeightedDegree(graph.VertexID(v)))
		totalLoad += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	var rows []Fig5Row
	cfg.printf("Figure 5 — impact of c (LJ-like, %d runs each)\n", runs)
	for _, c := range []float64{1.02, 1.05, 1.10, 1.20} {
		for _, k := range []int{8, 16, 32, 64} {
			sumRho, maxRho, sumIter := 0.0, 0.0, 0.0
			for r := 0; r < runs; r++ {
				opts := cfg.spinnerOpts(k)
				opts.C = c
				opts.Seed = cfg.Seed + uint64(r)*7919
				p, err := core.NewPartitioner(opts)
				if err != nil {
					return nil, err
				}
				res, err := p.PartitionWeighted(w)
				if err != nil {
					return nil, fmt.Errorf("fig5 c=%v k=%d: %w", c, k, err)
				}
				rho := metrics.Rho(w, res.Labels, k)
				sumRho += rho
				if rho > maxRho {
					maxRho = rho
				}
				sumIter += float64(res.Iterations)
			}
			row := Fig5Row{
				C: c, K: k, AvgRho: sumRho / float64(runs), MaxRho: maxRho,
				Iterations:  sumIter / float64(runs),
				Granularity: maxDeg / (totalLoad / float64(k)),
			}
			rows = append(rows, row)
			cfg.printf("  c=%.2f k=%-3d avg ρ=%.3f max ρ=%.3f iters=%.1f granularity=%.2f\n",
				c, k, row.AvgRho, row.MaxRho, row.Iterations, row.Granularity)
		}
	}
	return rows, nil
}

// --- Figure 7: adapting to dynamic graph changes --------------------------

// Fig7Row measures adaptation vs scratch for one change fraction. The
// message counts are core.Result.Messages: label-change announcements only
// (a run reads its starting labels from memory), so MsgSavings — here and
// in Fig8Row — is a saving over what actually moves.
type Fig7Row struct {
	NewEdgeFrac   float64
	TimeSavings   float64 // 1 − adaptTime/scratchTime
	MsgSavings    float64 // 1 − adaptMsgs/scratchMsgs
	MovedAdaptive float64 // partitioning difference, adaptive
	MovedScratch  float64 // partitioning difference, scratch
	AdaptPhi      float64
	ScratchPhi    float64
	AdaptRho      float64
}

// Fig7 grows a Tuenti-like graph by x% new edges and compares incremental
// adaptation against repartitioning from scratch on cost (panel a) and
// stability (panel b).
func Fig7(cfg Config, fracs []float64) ([]Fig7Row, error) {
	if len(fracs) == 0 {
		fracs = []float64{0.005, 0.01, 0.05, 0.10, 0.30}
	}
	g := gen.Load(gen.TuentiLike, cfg.scale(), cfg.Seed)
	w := graph.Convert(g)
	const k = 32
	base, err := cfg.runSpinner(w, k)
	if err != nil {
		return nil, err
	}
	p, err := core.NewPartitioner(cfg.spinnerOpts(k))
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	cfg.printf("Figure 7 — adapting to graph changes (TU-like, k=%d)\n", k)
	for _, frac := range fracs {
		grown := w.Clone()
		mut := gen.GrowthBatch(grown, frac, cfg.Seed+uint64(1e6*frac))
		if _, err := mut.Apply(grown); err != nil {
			return nil, err
		}
		adaptStart := time.Now()
		adapt, err := p.Adapt(grown, base.Labels, mut.TouchedVertices())
		if err != nil {
			return nil, err
		}
		adaptTime := time.Since(adaptStart)
		scratchStart := time.Now()
		scratch, err := p.PartitionWeighted(grown)
		if err != nil {
			return nil, err
		}
		scratchTime := time.Since(scratchStart)

		row := Fig7Row{
			NewEdgeFrac:   frac,
			TimeSavings:   1 - adaptTime.Seconds()/scratchTime.Seconds(),
			MsgSavings:    1 - float64(adapt.Messages)/float64(scratch.Messages),
			MovedAdaptive: metrics.Difference(base.Labels, adapt.Labels),
			MovedScratch:  metrics.Difference(base.Labels, scratch.Labels),
			AdaptPhi:      metrics.Phi(grown, adapt.Labels),
			ScratchPhi:    metrics.Phi(grown, scratch.Labels),
			AdaptRho:      metrics.Rho(grown, adapt.Labels, k),
		}
		rows = append(rows, row)
		cfg.printf("  +%.1f%% edges: time savings=%.0f%% msg savings=%.0f%% moved(adapt)=%.0f%% moved(scratch)=%.0f%% φ=%.2f/%.2f ρ=%.3f\n",
			100*frac, 100*row.TimeSavings, 100*row.MsgSavings, 100*row.MovedAdaptive, 100*row.MovedScratch,
			row.AdaptPhi, row.ScratchPhi, row.AdaptRho)
	}
	return rows, nil
}

// --- Figure 8: adapting to resource changes -------------------------------

// Fig8Row measures elastic adaptation vs scratch for one partition-count
// change.
type Fig8Row struct {
	NewPartitions int
	TimeSavings   float64
	MsgSavings    float64
	MovedAdaptive float64
	MovedScratch  float64
	AdaptPhi      float64
	AdaptRho      float64
}

// Fig8 grows the partition count of a Tuenti-like graph from 32 by 1..8
// partitions and compares elastic adaptation against scratch.
func Fig8(cfg Config, added []int) ([]Fig8Row, error) {
	if len(added) == 0 {
		added = []int{1, 2, 4, 8}
	}
	g := gen.Load(gen.TuentiLike, cfg.scale(), cfg.Seed)
	w := graph.Convert(g)
	const oldK = 32
	base, err := cfg.runSpinner(w, oldK)
	if err != nil {
		return nil, err
	}
	var rows []Fig8Row
	cfg.printf("Figure 8 — adapting to resource changes (TU-like, base k=%d)\n", oldK)
	for _, n := range added {
		newK := oldK + n
		p, err := core.NewPartitioner(cfg.spinnerOpts(newK))
		if err != nil {
			return nil, err
		}
		adaptStart := time.Now()
		adapt, err := p.Resize(w, base.Labels, oldK)
		if err != nil {
			return nil, err
		}
		adaptTime := time.Since(adaptStart)
		scratchStart := time.Now()
		scratch, err := p.PartitionWeighted(w)
		if err != nil {
			return nil, err
		}
		scratchTime := time.Since(scratchStart)
		row := Fig8Row{
			NewPartitions: n,
			TimeSavings:   1 - adaptTime.Seconds()/scratchTime.Seconds(),
			MsgSavings:    1 - float64(adapt.Messages)/float64(scratch.Messages),
			MovedAdaptive: metrics.Difference(base.Labels, adapt.Labels),
			MovedScratch:  metrics.Difference(base.Labels, scratch.Labels),
			AdaptPhi:      metrics.Phi(w, adapt.Labels),
			AdaptRho:      metrics.Rho(w, adapt.Labels, newK),
		}
		rows = append(rows, row)
		cfg.printf("  +%d partitions: time savings=%.0f%% msg savings=%.0f%% moved(adapt)=%.0f%% moved(scratch)=%.0f%% φ=%.2f ρ=%.3f\n",
			n, 100*row.TimeSavings, 100*row.MsgSavings, 100*row.MovedAdaptive, 100*row.MovedScratch, row.AdaptPhi, row.AdaptRho)
	}
	return rows, nil
}

// --- Figure 9: impact on application performance --------------------------

// Fig9Row is one (dataset, application) improvement measurement.
type Fig9Row struct {
	Dataset     gen.Dataset
	App         string
	HashTime    time.Duration
	SpinnerTime time.Duration
	Improvement float64 // 1 − spinner/hash
}

// Fig9 runs SSSP (SP), PageRank (PR) and Connected Components (CC) on the
// LJ-, TU- and TW-like graphs under hash and Spinner placement and prices
// the runs with the cluster cost model.
func Fig9(cfg Config) ([]Fig9Row, error) {
	model := cluster.Default()
	workers := cfg.Workers
	if workers <= 0 {
		workers = 8
	}
	datasets := []struct {
		d gen.Dataset
		k int
	}{
		{gen.LiveJournalLike, 16},
		{gen.TuentiLike, 32},
		{gen.TwitterLike, 64},
	}
	var rows []Fig9Row
	cfg.printf("Figure 9 — application runtime improvement, Spinner vs hash\n")
	for _, ds := range datasets {
		g := gen.Load(ds.d, cfg.scale(), cfg.Seed)
		w := graph.Convert(g)
		res, err := cfg.runSpinner(w, ds.k)
		if err != nil {
			return nil, err
		}
		hashPl := apps.HashPlacement(workers)
		spinPl := apps.PlacementFromLabels(res.Labels, workers)
		runs := []struct {
			name string
			run  func(pl func(graph.VertexID) int) (*apps.Result, error)
		}{
			{"SP", func(pl func(graph.VertexID) int) (*apps.Result, error) {
				_, r, err := apps.SSSP(g, 0, apps.RunConfig{NumWorkers: workers, Placement: pl})
				return r, err
			}},
			{"PR", func(pl func(graph.VertexID) int) (*apps.Result, error) {
				_, r, err := apps.PageRank(g, 20, apps.RunConfig{NumWorkers: workers, Placement: pl})
				return r, err
			}},
			{"CC", func(pl func(graph.VertexID) int) (*apps.Result, error) {
				_, r, err := apps.WCC(g, apps.RunConfig{NumWorkers: workers, Placement: pl})
				return r, err
			}},
		}
		for _, app := range runs {
			hr, err := app.run(hashPl)
			if err != nil {
				return nil, fmt.Errorf("fig9 %s/%s hash: %w", ds.d, app.name, err)
			}
			sr, err := app.run(spinPl)
			if err != nil {
				return nil, fmt.Errorf("fig9 %s/%s spinner: %w", ds.d, app.name, err)
			}
			ht, st := model.Total(hr.Stats), model.Total(sr.Stats)
			row := Fig9Row{Dataset: ds.d, App: app.name, HashTime: ht, SpinnerTime: st,
				Improvement: 1 - float64(st)/float64(ht)}
			rows = append(rows, row)
			cfg.printf("  %-4s %-3s hash=%-12v spinner=%-12v improvement=%.0f%%\n",
				ds.d, app.name, ht, st, 100*row.Improvement)
		}
	}
	return rows, nil
}
