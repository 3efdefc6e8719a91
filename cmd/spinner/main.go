// Command spinner partitions an edge-list graph with the Spinner algorithm
// and writes one "vertex label" line per vertex.
//
// Usage:
//
//	spinner -k 32 [-in graph.txt] [-out parts.txt] [flags]
//
// Reads the edge list from stdin (or -in), one "src dst" pair per line;
// lines starting with '#' or '%' are skipped. With -adapt PREV, the
// partitioning in PREV is adapted incrementally instead of computing from
// scratch; with -resize OLDK, PREV is adapted from OLDK to -k partitions.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
)

func main() {
	var (
		k          = flag.Int("k", 32, "number of partitions")
		c          = flag.Float64("c", 1.05, "additional capacity (c > 1)")
		eps        = flag.Float64("epsilon", 0.001, "halting threshold ε")
		window     = flag.Int("w", 5, "halting window w")
		maxIter    = flag.Int("max-iterations", 200, "iteration cap")
		seed       = flag.Uint64("seed", 1, "random seed")
		workers    = flag.Int("workers", 0, "Pregel workers, each its own §IV-A4 load view, so the labels depend on it (0 = 8 on every host)")
		undirected = flag.Bool("undirected", false, "treat input edges as undirected")
		inPath     = flag.String("in", "", "input edge list (default stdin)")
		outPath    = flag.String("out", "", "output partitioning (default stdout)")
		adaptPath  = flag.String("adapt", "", "previous partitioning to adapt incrementally")
		resizeFrom = flag.Int("resize", 0, "previous partition count; adapt PREV from this k to -k")
		quiet      = flag.Bool("q", false, "suppress the summary line on stderr")
	)
	flag.Parse()

	if err := run(*k, *c, *eps, *window, *maxIter, *seed, *workers, *undirected,
		*inPath, *outPath, *adaptPath, *resizeFrom, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "spinner:", err)
		os.Exit(1)
	}
}

func run(k int, c, eps float64, window, maxIter int, seed uint64, workers int,
	undirected bool, inPath, outPath, adaptPath string, resizeFrom int, quiet bool) error {
	var in io.Reader = os.Stdin
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	g, err := graph.ReadEdgeList(in, !undirected)
	if err != nil {
		return err
	}

	opts := core.Options{K: k, C: c, Epsilon: eps, W: window, MaxIterations: maxIter, Seed: seed, NumWorkers: workers}
	p, err := core.NewPartitioner(opts)
	if err != nil {
		return err
	}

	if resizeFrom > 0 && adaptPath == "" {
		return fmt.Errorf("-resize requires -adapt PREV with the previous labels")
	}
	var prev []int32
	if adaptPath != "" {
		// PREV's labels lie in [0, OLDK) for a resize, in [0, k) otherwise.
		if prev, err = readPrev(adaptPath, g.NumVertices(), cmp.Or(resizeFrom, k)); err != nil {
			return err
		}
	}
	w := graph.Convert(g)
	var res *core.Result
	switch {
	case resizeFrom > 0:
		res, err = p.Resize(w, prev, resizeFrom)
	case prev != nil:
		res, err = p.Adapt(w, prev, nil)
	default:
		res, err = p.PartitionWeighted(w)
	}
	if err != nil {
		return err
	}

	var out io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := graph.WritePartitioning(out, res.Labels); err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "%s φ=%.3f ρ=%.3f runtime=%v\n",
			res, metrics.Phi(w, res.Labels), metrics.Rho(w, res.Labels, k), res.Runtime)
	}
	return nil
}

func readPrev(path string, n, k int) ([]int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadPartitioning(f, n, k)
}
