// Benchmarks regenerating every table and figure of the Spinner paper's
// evaluation (§V). Each benchmark prints the experiment's rows once (the
// same output cmd/experiments renders) and reports the end-to-end cost of
// regenerating the experiment as the benchmark time.
//
// Run a single experiment:
//
//	go test -bench=BenchmarkTable1 -benchtime=1x
//
// The b.N loop re-runs the whole experiment; quality rows are printed only
// on the first iteration to keep -benchtime sweeps readable. Scales are
// reduced relative to cmd/experiments defaults so `go test -bench=.`
// completes in minutes; pass -scale via cmd/experiments for bigger runs.
package repro

import (
	"os"
	"runtime"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// benchCfg returns the experiment configuration used by the benchmarks,
// printing rows only when firstRun is true.
func benchCfg(firstRun bool) experiments.Config {
	cfg := experiments.Config{Scale: 6000, Seed: 1, Workers: 4}
	if firstRun {
		cfg.Out = os.Stdout
	}
	return cfg
}

// BenchmarkTable1Comparison regenerates Table I: Spinner vs Wang et al.,
// Stanton et al. (LDG), Fennel and METIS on the Twitter-like graph,
// k ∈ {2..32}.
func BenchmarkTable1Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchCfg(i == 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Balance regenerates Table III: average ρ per graph.
func BenchmarkTable3Balance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(benchCfg(i == 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4WorkerLoad regenerates Table IV: PageRank superstep worker
// times under random vs Spinner placement.
func BenchmarkTable4WorkerLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(benchCfg(i == 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3aLocalityVsK regenerates Fig. 3(a): φ as a function of the
// number of partitions for every dataset analogue (and, via the HashPhi
// column, Fig. 3(b)'s improvement over hash partitioning).
func BenchmarkFig3aLocalityVsK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(benchCfg(i == 0), 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3bHashImprovement regenerates Fig. 3(b) standalone: the φ
// improvement factor over hash partitioning at large k.
func BenchmarkFig3bHashImprovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3(benchCfg(false), 64)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.K == 64 {
					b.Logf("%s k=%d: %.1fx over hash", r.Dataset, r.K, r.Improvement)
				}
			}
		}
	}
}

// BenchmarkFig4Evolution regenerates Fig. 4: per-iteration evolution of φ,
// ρ and score(G) on the Twitter-like and Yahoo-like graphs.
func BenchmarkFig4Evolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(benchCfg(i == 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5CapacitySweep regenerates Fig. 5: the effect of the
// additional-capacity parameter c on balance (ρ ≤ c) and convergence speed.
func BenchmarkFig5CapacitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(benchCfg(i == 0), 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6aScaleVertices regenerates Fig. 6(a): first-iteration
// runtime as a function of the graph size (Watts–Strogatz, fixed degree).
func BenchmarkFig6aScaleVertices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6a(benchCfg(i == 0), []int{4000, 8000, 16000, 32000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6bScaleWorkers regenerates Fig. 6(b): first-iteration runtime
// as a function of the number of workers.
func BenchmarkFig6bScaleWorkers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6b(benchCfg(i == 0), []int{1, 2, 4, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6cScaleParts regenerates Fig. 6(c): first-iteration runtime
// as a function of the number of partitions.
func BenchmarkFig6cScaleParts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6c(benchCfg(i == 0), []int{2, 8, 32, 128}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7DynamicGraphs regenerates Fig. 7: cost savings and
// partitioning stability of incremental adaptation vs repartitioning after
// graph growth.
func BenchmarkFig7DynamicGraphs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(benchCfg(i == 0), []float64{0.01, 0.05, 0.10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8ElasticResize regenerates Fig. 8: cost savings and stability
// of elastic adaptation when partitions are added.
func BenchmarkFig8ElasticResize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(benchCfg(i == 0), []int{1, 2, 4, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Applications regenerates Fig. 9: runtime improvement of SP,
// PR and CC under Spinner placement vs hash placement.
func BenchmarkFig9Applications(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(benchCfg(i == 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (core.Options' ablation switches) --------------------

// ablationGraph is shared by the ablation benches. The hub-skewed Twitter
// analogue is used because the probabilistic-migration ablation only shows
// its ρ damage when hubs make partitions capacity-constrained.
func ablationGraph() *graph.Weighted {
	return graph.Convert(gen.Load(gen.TwitterLike, 6000, 1))
}

func runAblation(b *testing.B, mod func(*core.Options)) (phi, rho float64, iters int) {
	w := ablationGraph()
	opts := core.DefaultOptions(16)
	opts.Seed = 1
	opts.NumWorkers = 4
	if mod != nil {
		mod(&opts)
	}
	p, err := core.NewPartitioner(opts)
	if err != nil {
		b.Fatal(err)
	}
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res, err = p.PartitionWeighted(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	return metrics.Phi(w, res.Labels), metrics.Rho(w, res.Labels, 16), res.Iterations
}

// BenchmarkAblationBaseline is the reference configuration for the
// ablation comparisons below.
func BenchmarkAblationBaseline(b *testing.B) {
	phi, rho, iters := runAblation(b, nil)
	b.ReportMetric(phi, "φ")
	b.ReportMetric(rho, "ρ")
	b.ReportMetric(float64(iters), "iters")
}

// BenchmarkAblationSyncLoads disables the per-worker asynchronous load
// view (§IV-A4).
func BenchmarkAblationSyncLoads(b *testing.B) {
	phi, rho, iters := runAblation(b, func(o *core.Options) { o.DisableAsyncWorkerState = true })
	b.ReportMetric(phi, "φ")
	b.ReportMetric(rho, "ρ")
	b.ReportMetric(float64(iters), "iters")
}

// BenchmarkAblationUnboundedMigration disables the probabilistic migration
// bound (Eq. 14); watch the ρ metric degrade.
func BenchmarkAblationUnboundedMigration(b *testing.B) {
	phi, rho, iters := runAblation(b, func(o *core.Options) { o.UnboundedMigration = true })
	b.ReportMetric(phi, "φ")
	b.ReportMetric(rho, "ρ")
	b.ReportMetric(float64(iters), "iters")
}

// BenchmarkAblationUnweighted ignores the directed-multiplicity edge
// weights of Eq. 3.
func BenchmarkAblationUnweighted(b *testing.B) {
	phi, rho, iters := runAblation(b, func(o *core.Options) { o.IgnoreEdgeWeights = true })
	b.ReportMetric(phi, "φ")
	b.ReportMetric(rho, "ρ")
	b.ReportMetric(float64(iters), "iters")
}

// BenchmarkAblationRandomTieBreak breaks score ties randomly instead of
// preferring the current label.
func BenchmarkAblationRandomTieBreak(b *testing.B) {
	phi, rho, iters := runAblation(b, func(o *core.Options) { o.RandomTieBreak = true })
	b.ReportMetric(phi, "φ")
	b.ReportMetric(rho, "ρ")
	b.ReportMetric(float64(iters), "iters")
}

// --- Microbenchmarks -------------------------------------------------------

// BenchmarkSpinnerIteration measures the core partitioning loop on a
// mid-size small-world graph (whole run, conversion included). Besides
// ns/op it reports ns/arc-iter — wall time over (arcs of the undirected
// support graph × LPA iterations) — which reads across graph sizes.
func BenchmarkSpinnerIteration(b *testing.B) {
	g := gen.WattsStrogatz(20000, 16, 0.3, 1)
	arcs := 2 * graph.Convert(g).NumEdges()
	opts := core.DefaultOptions(32)
	opts.Seed = 1
	p, err := core.NewPartitioner(opts)
	if err != nil {
		b.Fatal(err)
	}
	var iterations int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Partition(g)
		if err != nil {
			b.Fatal(err)
		}
		iterations += int64(res.Iterations)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arcs*iterations), "ns/arc-iter")
}

// BenchmarkPartitionWeighted measures PartitionWeighted from scratch in the
// benchmark's partition-scratch shape — WS(200 000, 16, 0.3) and BA(100 000,
// 10), k = 32, two workers, 8.4 M arcs between them — where the arcs do not
// fit in cache and what an arc costs per iteration shows, unlike in the
// 20 000-vertex BenchmarkSpinnerIteration. It reports ns/arc-iter (wall time
// over arcs × LPA iterations) and B/arc (bytes allocated per arc and run).
func BenchmarkPartitionWeighted(b *testing.B) {
	opts := core.DefaultOptions(32)
	opts.Seed = 1
	opts.NumWorkers = 2
	p, err := core.NewPartitioner(opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    func() *graph.Graph
	}{
		{"ws-200k", func() *graph.Graph { return gen.WattsStrogatz(200_000, 16, 0.3, 1) }},
		{"ba-100k", func() *graph.Graph { return gen.BarabasiAlbert(100_000, 10, 1) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			w := graph.Convert(c.g())
			arcs := float64(2 * w.NumEdges())
			var iterations int64
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := p.PartitionWeighted(w)
				if err != nil {
					b.Fatal(err)
				}
				iterations += int64(res.Iterations)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(arcs*float64(iterations)), "ns/arc-iter")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/(arcs*float64(b.N)), "B/arc")
		})
	}
}

// BenchmarkWarmStart measures the two warm starts from converged labels on a
// graph whose arcs do not fit in cache (WS(100 000, 16, 0.3), 3.2 M arcs):
// Adapt after a 2 % growth batch (§III-D) and Resize 32→40 (§III-E). A warm
// start runs few iterations, so what a run costs before any vertex moves —
// loading the graph, Initialization, the first ComputeScores — dominates it;
// B/arc and ns/arc read across graph sizes.
func BenchmarkWarmStart(b *testing.B) {
	const k = 32
	part := func(k int) *core.Partitioner {
		opts := core.DefaultOptions(k)
		opts.Seed = 1
		p, err := core.NewPartitioner(opts)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	w := graph.Convert(gen.WattsStrogatz(100_000, 16, 0.3, 1))
	base, err := part(k).PartitionWeighted(w)
	if err != nil {
		b.Fatal(err)
	}
	grown := w.Clone()
	if _, err := gen.GrowthBatch(grown, 0.02, 2).Apply(grown); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		on   *graph.Weighted
		run  func() (*core.Result, error)
	}{
		{"Adapt", grown, func() (*core.Result, error) { return part(k).Adapt(grown, base.Labels, nil) }},
		{"Resize-32-40", w, func() (*core.Result, error) { return part(40).Resize(w, base.Labels, k) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			arcRuns := float64(2*c.on.NumEdges()) * float64(b.N)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/arcRuns, "B/arc")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/arcRuns, "ns/arc")
		})
	}
}

// BenchmarkBaselineMultilevel measures the METIS-style comparator on the
// same workload for context.
func BenchmarkBaselineMultilevel(b *testing.B) {
	w := graph.Convert(gen.WattsStrogatz(20000, 16, 0.3, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.Multilevel{Seed: 1}.Partition(w, 32)
	}
}

// BenchmarkBaselineFennel measures the Fennel streaming comparator.
func BenchmarkBaselineFennel(b *testing.B) {
	w := graph.Convert(gen.WattsStrogatz(20000, 16, 0.3, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.Fennel{Seed: 1}.Partition(w, 32)
	}
}

// BenchmarkConvert measures the directed→weighted-undirected conversion.
func BenchmarkConvert(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Convert(g)
	}
}
