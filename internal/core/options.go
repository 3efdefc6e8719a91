// Package core implements Spinner, the scalable k-way balanced graph
// partitioning algorithm of Martella et al. (ICDE 2017), on top of the
// Pregel engine in internal/pregel.
//
// Spinner extends label propagation (LPA) with:
//
//   - a weighting of the undirected support graph that counts the messages
//     a Pregel system would exchange across each edge (Eq. 3);
//   - a balance penalty π(l) = b(l)/C subtracted from the normalized
//     locality score (Eq. 8), where C = c·T/k is the per-partition
//     capacity (Eq. 5) over the total load T;
//   - a decentralized probabilistic migration step that lets each
//     candidate vertex migrate with probability r(l)/m(l) (Eq. 14), which
//     bounds capacity violations with high probability (Prop. 3);
//   - a per-worker asynchronous view of the partition loads (§IV-A4) that
//     speeds up convergence without cross-worker coordination;
//   - a score-based halting heuristic (ε, w) over score(G) (Eq. 10);
//   - incremental adaptation after graph mutations (§III-D) and elastic
//     adaptation after partition count changes (§III-E).
//
// # Labels, and the neighbour-label histogram
//
// A vertex's label has one home: slot v of a dense []int32 that the run
// owns, indexed by vertex (program.labels). A warm start (Adapt, Resize)
// hands in the array it seeded; a from-scratch run fills it in the
// Initialization superstep, each vertex drawing its own slot's label.
// Result.Labels is that array, and an IterationSnapshot gets a copy.
//
// §IV-A of the paper stores each neighbour's last known label in the edge
// value so that only label changes travel. Here no arc holds any state: what
// a vertex needs to know about its neighbours' labels is its histogram, one
// bar per distinct neighbour label holding the summed weight of the arcs to
// neighbours that carry it, carved at Initialization, with capacity
// min(degree, k), from an arena of the worker that owns the vertex. The
// starting labels do not travel either. Initialization sends nothing; the
// first ComputeScores scans the vertex's arcs once, reads each target's slot
// of the label array, and builds the histogram. The array needs no lock and
// no atomics, for the reason the master state needs none: a slot is written
// only by its own vertex and only in Initialization and ComputeMigrations
// supersteps; slots are read only in ComputeScores supersteps (a vertex's
// own in every iteration, its neighbours' in the first); and the engine's
// barrier separates any two supersteps. Reading a neighbour's slot is what
// an in-process engine with one address space can do; a distributed Pregel
// would pay one round of messages, one per arc, for the same information.
//
// Three rules keep the histogram exact without a per-arc record.
//
// Messages carry old, new and w. A vertex that migrates sends
// msg{old, new, w} along each of its arcs, w being that arc's weight, and
// that is the only kind of message an LPA iteration sends — Result.Messages
// counts migrations times degree. The receiver moves w from bar old to bar new and looks up no
// arc. This is exact because graph.Weighted's rows mirror each other: u's
// arc to v has the weight of v's arc to u, so the sender's weight is the
// receiver's. A row holds one arc per neighbour — an edge added twice is one
// arc holding both weights — so one message moves all of it. A receiver
// whose bar old holds less than w has met rows that do not mirror, and
// panics naming itself and the labels rather than score from a wrong
// histogram. A ComputeScores call costs O(messages received + distinct
// neighbour labels), not O(degree).
//
// Bars are in label order. The order matters: labels whose scores tie are
// resolved by the paper's rule — keep the current label, else draw
// uniformly among the tied maxima — with one reservoir draw per tied label
// in the order the bars are visited, so the order fixes which draw goes
// to which label, though not the distribution of the outcome.
// Label order is the order a run can keep without per-arc state, and it
// makes a bar just its weight: each vertex keeps the labels of its bars as
// a bitmap of ⌈k/64⌉ words (held), and bar i's label is the i-th set bit of
// held. Scoring walks the set bits in step with the bars; a move finds
// label l's bar by rank, not by search — it is the one at the number of set
// bits below l. A move drops a bar whose weight reaches 0
// (weights are positive — graph.Weighted's invariant: Convert assigns 1 or
// 2, Mutation.Apply raises anything lower to 1, DecodeWeightedBinary refuses
// it — and integral, so the sums are exact) and creates a new one in place,
// shifting the bars between the two once when it does both.
//
// Rows are read in place and never written. With no per-arc state, a
// vertex's arcs are graph.WeightedArc, so every run hands the engine the
// graph's rows by reference and allocates no arc storage; the graph must
// not change until the run returns. A directed graph is converted to Eq. 3's
// weighted undirected graph before the engine starts, by graph.Convert, the
// one conversion the store, the journal and every caller share: Partition(g)
// is PartitionWeighted(Convert(g)). Fig. 2 of the paper converts in two
// Pregel supersteps instead, NeighborPropagation and NeighborDiscovery,
// because a Giraph worker holds only out-edges; an engine that holds the
// whole graph needs neither.
//
// # Draws, and the worker count
//
// A run is a function of (graph, options, seed), never of the host. Every
// draw belongs to one vertex in one superstep — a from-scratch run's
// starting label, the tie-breaks of a ComputeScores walk, the Eq. 14 coin
// of a ComputeMigrations — and is a pure function of (seed, superstep,
// vertex, site) (rng.At: the counter-based draws of Salmon et al., SC
// 2011), so it depends on neither the worker that makes it nor the draws
// made before it; the engine keeps no random stream. The labels do depend
// on the worker count, because each worker keeps its own §IV-A4 view of
// the loads, so NumWorkers defaults to the same 8 on every host, and the
// engine runs one goroutine per worker whatever GOMAXPROCS is, delivering
// and merging in worker order. TestLabelsIndependentOfGOMAXPROCS (package
// repro) checks Partition, Adapt and Resize, and the analytics programs,
// under GOMAXPROCS 1, 2 and 4.
//
// # Work only where a label can change
//
// A warm start moves few vertices, so an iteration skips what cannot move,
// and labels, random draws, messages and iteration counts stay what a walk
// of every bar of every vertex gives.
//
// The bound. Each worker keeps penaltyUB ≥ every label's balance term: set
// exactly when the per-superstep refresh recomputes the penalties, and
// raised to the old label's penalty when a candidate's tentative move
// lowers its load (the new label's penalty only falls). Before walking a
// vertex's bars, ComputeScores takes the heaviest bar other than the
// current label's; if that bar at penaltyUB scores at most the current
// label's score minus the tie margin, no bar can beat or tie it, so the
// walk would pick nothing and draw nothing, and is skipped. Rounding is
// monotone, so the bound holds in float64 as it does in the reals;
// TestBoundSkipsOnlyWhatCannotMoveProperty checks it at k = 32 and 130.
//
// Halting. A vertex that is not a candidate votes to halt in
// ComputeScores, so the ComputeMigrations superstep computes only the
// candidates, and the engine skips the others without reading their
// records. The master wakes every vertex (pregel.Master.WakeAll) after
// each ComputeMigrations superstep, and after a ComputeScores superstep
// that produced no candidate, so that ComputeMigrations superstep, its
// master step, the run's supersteps and History are as they were. A
// migrating vertex announces its move through the worker's pregel.Outbox,
// whose Send inlines into the loop over its arcs.
//
// TestHistogramMatchesEdgeScanProperty compares every histogram with a
// fresh scan of every arc over the labels after every ComputeScores
// superstep; TestReAddedEdgesReachTheHistogram checks that a re-added
// edge's whole weight reaches a bar; TestInitialLabelsAreReadNotSent checks
// the message counts and runs under the race detector; TestGoldenLabels
// pins the labels.
package core

import (
	"errors"
	"fmt"

	"repro/internal/pregel"
)

// MaxK is the largest partition count anything accepts: a Partitioner's
// options, a store's resize, a relabel record and a checkpoint. The state
// a partitioner or a serving store keeps grows linearly in k, and labels
// are int32. The largest k any claim or workload uses is 64.
const MaxK = 1 << 16

// Options configures a Partitioner. The zero value is not valid; use
// DefaultOptions or fill in at least K.
type Options struct {
	// K is the number of partitions (labels). Required, in [1, MaxK].
	K int
	// C is the additional-capacity constant c > 1 of Eq. 5. Each partition
	// may hold up to c·T/k load. Larger values converge faster but allow
	// more unbalance (Fig. 5). Default 1.05.
	C float64
	// Epsilon is the halting threshold ε: the run is in a steady state when
	// the relative improvement of score(G) stays below ε. Default 0.001.
	Epsilon float64
	// W is the halting window w: number of consecutive steady iterations
	// required before halting. Default 5.
	W int
	// MaxIterations bounds the number of LPA iterations (each iteration is
	// a ComputeScores + ComputeMigrations superstep pair). Default 200.
	MaxIterations int
	// Seed drives all randomness (initialization, tie-breaks, migration
	// coin flips, elastic re-labeling). Runs are reproducible per seed.
	Seed uint64
	// NumWorkers is the Pregel worker count, and so the number of §IV-A4
	// load views: the labels depend on it. Default pregel.DefaultWorkers
	// (8) on every host, so a run is a function of (graph, options, seed)
	// and not of GOMAXPROCS.
	NumWorkers int
	// IterationSnapshot, when non-nil, is called after every completed LPA
	// iteration (each ComputeScores + ComputeMigrations pair) with the
	// 1-based iteration number and a fresh copy of the labels at that
	// point. Because score(G) climbs monotonically toward convergence,
	// every intermediate labeling is a valid, progressively better
	// partitioning. The serving layer does not use it: it publishes only a
	// run's final labels, as one journaled relabel. The callback runs
	// on the partitioning goroutine between supersteps, so it should
	// return quickly. The callback owns the labels slice.
	IterationSnapshot func(iteration int, labels []int32)
	// CapacityFractions optionally assigns heterogeneous capacities: entry
	// l is partition l's share of the total load (normalized internally).
	// Nil means homogeneous (the paper's §III-B setting, 1/k each). This
	// generalizes Eq. 5 to C_l = c·T·f_l, supporting clusters of unequal
	// machines — an extension the paper leaves implicit by presenting the
	// homogeneous case "often preferred ... to eliminate stragglers".
	CapacityFractions []float64

	// UnboundedMigration disables the probabilistic migration step
	// (Eq. 14): every candidate migrates. An ablation, default false: it
	// demonstrates the ρ blow-up the ComputeMigrations step prevents (the
	// eq14 row of internal/experiments).
	UnboundedMigration bool
	// AffectedOnly restricts migration evaluation, after an incremental
	// restart, to vertices affected by the graph change and vertices that
	// subsequently observe a neighbor's migration (§III-D, first strategy).
	// The paper's default (and ours) is to let every vertex participate.
	AffectedOnly bool
}

// DefaultOptions returns the paper's experiment configuration (§V-A):
// c = 1.05, ε = 0.001, w = 5.
func DefaultOptions(k int) Options {
	return Options{K: k, C: 1.05, Epsilon: 0.001, W: 5, MaxIterations: 200}
}

// normalize fills defaults and validates.
func (o *Options) normalize() error {
	if o.K < 1 || o.K > MaxK {
		return fmt.Errorf("core: K=%d, want 1..%d", o.K, MaxK)
	}
	if o.C == 0 {
		o.C = 1.05
	}
	if o.C <= 1 {
		return fmt.Errorf("core: C=%v, want > 1", o.C)
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.001
	}
	if o.Epsilon < 0 {
		return errors.New("core: negative Epsilon")
	}
	if o.W == 0 {
		o.W = 5
	}
	if o.W < 1 {
		return errors.New("core: W must be >= 1")
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 200
	}
	if o.MaxIterations < 1 {
		return errors.New("core: MaxIterations must be >= 1")
	}
	if o.NumWorkers <= 0 {
		o.NumWorkers = pregel.DefaultWorkers
	}
	if o.CapacityFractions != nil {
		if len(o.CapacityFractions) != o.K {
			return fmt.Errorf("core: %d capacity fractions for K=%d partitions", len(o.CapacityFractions), o.K)
		}
		sum := 0.0
		for l, f := range o.CapacityFractions {
			if f <= 0 {
				return fmt.Errorf("core: capacity fraction %v of partition %d not positive", f, l)
			}
			sum += f
		}
		norm := make([]float64, o.K)
		for l, f := range o.CapacityFractions {
			norm[l] = f / sum
		}
		o.CapacityFractions = norm
	}
	return nil
}
