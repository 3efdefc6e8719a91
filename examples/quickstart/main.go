// Quickstart: generate a small social-network-like graph, partition it with
// Spinner, and inspect the quality metrics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

func main() {
	// A directed graph with hub structure, like a follower network.
	g := gen.BarabasiAlbert(10000, 8, 42)
	fmt.Printf("graph: %d vertices, %d directed edges\n", g.NumVertices(), g.NumEdges())

	// Partition into 16 parts with the paper's default parameters
	// (c = 1.05, ε = 0.001, w = 5).
	p, err := core.NewPartitioner(core.DefaultOptions(16))
	if err != nil {
		log.Fatal(err)
	}
	// Partition converts the directed graph to its weighted undirected form
	// (Eq. 3, graph.Convert) and then runs the iterative label propagation.
	res, err := p.Partition(g)
	if err != nil {
		log.Fatal(err)
	}

	// Evaluate: φ is the fraction of edge weight kept local, ρ the maximum
	// normalized load (1.0 = perfectly balanced).
	w := graph.Convert(g)
	fmt.Printf("result: %s\n", res)
	fmt.Printf("locality φ = %.3f (hash partitioning would give ~%.3f)\n",
		metrics.Phi(w, res.Labels), 1.0/16)
	fmt.Printf("balance  ρ = %.3f (capacity bound c = 1.05)\n",
		metrics.Rho(w, res.Labels, 16))
	fmt.Printf("converged after %d iterations, %d supersteps, %d messages\n",
		res.Iterations, res.Supersteps, res.Messages)

	// The per-iteration history shows the hill climbing at work.
	fmt.Println("\niter    φ      ρ    migrations")
	for _, it := range res.History {
		if it.Iteration%5 == 1 || it.Iteration == len(res.History) {
			fmt.Printf("%4d  %.3f  %.3f  %d\n", it.Iteration, it.Phi, it.Rho, it.Migrations)
		}
	}
}
