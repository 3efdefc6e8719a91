// Micro-benchmarks of the LPA loop, which make profile-core profiles, and
// of graph conversion. The paper's tables and figures are not benchmarks
// here: they are the claims of internal/experiments, which
// cmd/experiments checks.
package repro

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

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

// BenchmarkConvert measures the directed→weighted-undirected conversion in
// the shape partition-scratch times — WS(200 000, 16, 0.3) and BA(100 000,
// 10), whose rows do not fit in cache — reporting ns/arc and B/arc over the
// arcs of the converted graph.
func BenchmarkConvert(b *testing.B) {
	for _, c := range []struct {
		name string
		g    func() *graph.Graph
	}{
		{"ws-200k", func() *graph.Graph { return gen.WattsStrogatz(200_000, 16, 0.3, 1) }},
		{"ba-100k", func() *graph.Graph { return gen.BarabasiAlbert(100_000, 10, 1) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			g := c.g()
			arcs := float64(2 * graph.Convert(g).NumEdges())
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.Convert(g)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(arcs*float64(b.N)), "ns/arc")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/(arcs*float64(b.N)), "B/arc")
		})
	}
}
