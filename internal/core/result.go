package core

import (
	"fmt"
	"time"
)

// IterationMetrics records the evolution of the partitioning quality during
// one LPA iteration; the sequence reproduces Fig. 4 of the paper.
type IterationMetrics struct {
	// Iteration is the 1-based LPA iteration number.
	Iteration int
	// Score is score(G) (Eq. 10) measured at the ComputeScores step.
	Score float64
	// Phi is the ratio of local edge weight before this iteration's
	// migrations.
	Phi float64
	// Rho is the maximum normalized load after this iteration's migrations.
	Rho float64
	// Migrations is the number of vertices that changed label.
	Migrations int64
	// CandidateLoad is Σ_l m(l): the total load that wanted to move.
	CandidateLoad float64
}

// Result is the outcome of a partitioning run.
type Result struct {
	// Labels assigns each vertex its partition in [0, K).
	Labels []int32
	// K is the number of partitions.
	K int
	// Iterations is the number of LPA iterations executed.
	Iterations int
	// Converged reports whether the run halted via the (ε, w) steady-state
	// heuristic rather than hitting MaxIterations.
	Converged bool
	// History holds per-iteration metrics (Fig. 4 curves).
	History []IterationMetrics
	// Supersteps is the total number of Pregel supersteps: the
	// Initialization superstep, then two per LPA iteration. Initialization
	// sends no messages: the first iteration reads its neighbours' starting
	// labels from the run's label array, memory an in-process engine shares
	// (a distributed Pregel would spend that superstep's messages on them).
	Supersteps int
	// Messages is the total number of Pregel messages exchanged: one per
	// arc of every vertex that changed label, in the iteration it did so.
	// Starting labels are read, not sent, so a run in which nothing moves
	// reports 0. The incremental-adaptation experiments (Fig. 7a) report
	// savings in this quantity as the network-load proxy: savings over what
	// actually moves.
	Messages int64
	// Runtime is the wall-clock time of the engine run. For Partition it
	// does not include graph.Convert.
	Runtime time.Duration
	// SuperstepDurations holds the wall-clock time of each Pregel
	// superstep, in order, Initialization first. The scalability
	// experiments (Fig. 6) report the first LPA iteration: the first
	// ComputeScores + ComputeMigrations pair.
	SuperstepDurations []time.Duration
}

// FirstIterationTime returns the wall-clock time of the first LPA
// iteration (ComputeScores + ComputeMigrations), the quantity the paper's
// scalability study measures (§V-B). Returns 0 if no iteration ran.
func (r *Result) FirstIterationTime() time.Duration {
	offset := r.Supersteps - 2*r.Iterations
	if r.Iterations == 0 || offset < 0 || offset+1 >= len(r.SuperstepDurations) {
		return 0
	}
	return r.SuperstepDurations[offset] + r.SuperstepDurations[offset+1]
}

// FinalPhi returns the locality recorded at the last iteration, or 0 if no
// iterations ran.
func (r *Result) FinalPhi() float64 {
	if len(r.History) == 0 {
		return 0
	}
	return r.History[len(r.History)-1].Phi
}

// FinalRho returns the balance recorded at the last iteration, or 1.
func (r *Result) FinalRho() float64 {
	if len(r.History) == 0 {
		return 1
	}
	return r.History[len(r.History)-1].Rho
}

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("spinner: k=%d iters=%d converged=%v φ=%.3f ρ=%.3f msgs=%d",
		r.K, r.Iterations, r.Converged, r.FinalPhi(), r.FinalRho(), r.Messages)
}
