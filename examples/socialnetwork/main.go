// Social network maintenance: keep a partitioning fresh while the graph
// grows, the scenario of §III-D / Fig. 7 of the paper.
//
// A Tuenti-like social graph receives batches of new friendships (70%
// triadic closure). After each batch we adapt the partitioning
// incrementally and compare against what a from-scratch repartitioning
// would have cost. Messages are label-change announcements only (a run
// reads its starting labels from memory), so the savings are over what
// actually moves.
//
//	go run ./examples/socialnetwork
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
	const k = 32
	g := gen.Load(gen.TuentiLike, 20000, 7)
	w := graph.Convert(g)
	fmt.Printf("social graph: %d members, %d friendships\n", w.NumVertices(), w.NumEdges())

	p, err := core.NewPartitioner(core.DefaultOptions(k))
	if err != nil {
		log.Fatal(err)
	}
	base, err := p.PartitionWeighted(w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial partitioning: φ=%.3f ρ=%.3f (%d iterations)\n\n",
		metrics.Phi(w, base.Labels), metrics.Rho(w, base.Labels, k), base.Iterations)

	labels := base.Labels
	for day := 1; day <= 3; day++ {
		// One day of growth: 1% new friendships.
		mut := gen.GrowthBatch(w, 0.01, uint64(100+day))
		if _, err := mut.Apply(w); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("day %d: +%d friendships\n", day, len(mut.NewEdges))

		adapted, err := p.Adapt(w, labels, mut.TouchedVertices())
		if err != nil {
			log.Fatal(err)
		}
		scratch, err := p.PartitionWeighted(w)
		if err != nil {
			log.Fatal(err)
		}

		moved := metrics.Difference(labels, adapted.Labels)
		movedScratch := metrics.Difference(labels, scratch.Labels)
		fmt.Printf("  incremental: φ=%.3f ρ=%.3f  %2d iterations, %7d messages, %4.1f%% of members moved\n",
			metrics.Phi(w, adapted.Labels), metrics.Rho(w, adapted.Labels, k),
			adapted.Iterations, adapted.Messages, 100*moved)
		fmt.Printf("  from scratch: φ=%.3f ρ=%.3f  %2d iterations, %7d messages, %4.1f%% of members moved\n",
			metrics.Phi(w, scratch.Labels), metrics.Rho(w, scratch.Labels, k),
			scratch.Iterations, scratch.Messages, 100*movedScratch)
		fmt.Printf("  savings: %.0f%% of messages, stability ×%.0f\n\n",
			100*(1-float64(adapted.Messages)/float64(scratch.Messages)), movedScratch/moved)

		labels = adapted.Labels
	}
}
