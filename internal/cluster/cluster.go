// Package cluster provides the simulated-cluster cost model that stands in
// for the paper's Hadoop/AWS deployments when reproducing the
// application-performance experiments (§V-F, Fig. 9 and Table IV).
//
// The model captures the two effects those experiments measure:
//
//  1. network: messages crossing worker boundaries cost far more than
//     local ones, so a partitioning with fewer cut edges lowers per-worker
//     communication time (Fig. 9's runtime improvements);
//  2. synchronization: a superstep ends when the slowest worker finishes,
//     so unbalanced load makes fast workers idle at the barrier (Table IV's
//     Max vs. Mean gap: "with hash partitioning the workers are idling on
//     average for 31% of the superstep").
//
// Per-worker superstep time is
//
//	t_w = ComputePerEdge·edges_w + LocalMsg·local_w + RemoteMsg·remote_w
//	    + RecvMsg·received_w + RecvRemoteMsg·receivedRemote_w
//
// and the superstep completes at Barrier + max_w t_w. The constants default
// to commodity-cluster ratios (remote ≈ 25× local); the experiments only
// depend on the ordering remote ≫ local ≥ compute, not on absolute values.
package cluster

import (
	"fmt"
	"math"
	"time"

	"repro/internal/pregel"
)

// CostModel prices a superstep's work.
type CostModel struct {
	// ComputePerEdge is charged per edge scanned by a vertex program.
	ComputePerEdge time.Duration
	// LocalMsg is charged to the sender per same-worker message.
	LocalMsg time.Duration
	// RemoteMsg is charged to the sender per cross-worker message
	// (serialization + network + remote handling).
	RemoteMsg time.Duration
	// RecvMsg is charged to the receiving worker per delivered message
	// (in-memory handling).
	RecvMsg time.Duration
	// RecvRemoteMsg is charged additionally per cross-worker message
	// received (network + deserialization). This term is what makes
	// hub-heavy graphs skew hash placement in Table IV: workers hosting
	// high in-degree vertices are receive-bound, while Spinner placement
	// keeps hub traffic local and total degree balanced.
	RecvRemoteMsg time.Duration
	// Barrier is the fixed synchronization overhead per superstep.
	Barrier time.Duration
}

// Default returns a cost model with commodity-cluster ratios.
func Default() CostModel {
	return CostModel{
		ComputePerEdge: 15 * time.Nanosecond,
		LocalMsg:       40 * time.Nanosecond,
		RemoteMsg:      1000 * time.Nanosecond,
		RecvMsg:        40 * time.Nanosecond,
		RecvRemoteMsg:  800 * time.Nanosecond,
		Barrier:        2 * time.Millisecond,
	}
}

// Timing summarizes one superstep across workers, the quantities of
// Table IV.
type Timing struct {
	// PerWorker is each worker's busy time.
	PerWorker []time.Duration
	// Mean, Max, Min are over workers.
	Mean, Max, Min time.Duration
}

// IdleFraction is the average fraction of the superstep that workers spend
// waiting at the barrier: 1 − Mean/Max.
func (t Timing) IdleFraction() float64 {
	if t.Max == 0 {
		return 0
	}
	return 1 - float64(t.Mean)/float64(t.Max)
}

// Superstep prices one superstep's statistics.
func (m CostModel) Superstep(st pregel.SuperstepStats) Timing {
	w := len(st.SentLocal)
	per := make([]time.Duration, w)
	var sum, maxT time.Duration
	minT := time.Duration(1<<63 - 1)
	for i := 0; i < w; i++ {
		t := time.Duration(st.ComputeEdges[i])*m.ComputePerEdge +
			time.Duration(st.SentLocal[i])*m.LocalMsg +
			time.Duration(st.SentRemote[i])*m.RemoteMsg +
			time.Duration(st.Received[i])*m.RecvMsg +
			time.Duration(st.ReceivedRemote[i])*m.RecvRemoteMsg
		per[i] = t
		sum += t
		if t > maxT {
			maxT = t
		}
		if t < minT {
			minT = t
		}
	}
	if w == 0 {
		minT = 0
	}
	return Timing{PerWorker: per, Mean: sum / time.Duration(max(w, 1)), Max: maxT, Min: minT}
}

// Total prices a whole run: Σ (Barrier + max_w t_w).
func (m CostModel) Total(stats []pregel.SuperstepStats) time.Duration {
	var total time.Duration
	for _, st := range stats {
		total += m.Barrier + m.Superstep(st).Max
	}
	return total
}

// Summary aggregates per-superstep timings over a run, reproducing
// Table IV's Mean ± std / Max ± std / Min ± std rows.
type Summary struct {
	Mean, Max, Min          time.Duration
	MeanStd, MaxStd, MinStd time.Duration
	AvgIdleFraction         float64
}

// Summarize aggregates the given supersteps (skipping any with no work).
func (m CostModel) Summarize(stats []pregel.SuperstepStats) Summary {
	var means, maxs, mins []float64
	idle := 0.0
	for _, st := range stats {
		t := m.Superstep(st)
		if t.Max == 0 {
			continue
		}
		means = append(means, float64(t.Mean))
		maxs = append(maxs, float64(t.Max))
		mins = append(mins, float64(t.Min))
		idle += t.IdleFraction()
	}
	if len(means) == 0 {
		return Summary{}
	}
	mMean, mStd := meanStd(means)
	xMean, xStd := meanStd(maxs)
	nMean, nStd := meanStd(mins)
	return Summary{
		Mean: time.Duration(mMean), MeanStd: time.Duration(mStd),
		Max: time.Duration(xMean), MaxStd: time.Duration(xStd),
		Min: time.Duration(nMean), MinStd: time.Duration(nStd),
		AvgIdleFraction: idle / float64(len(means)),
	}
}

// String formats the summary like a Table IV row: mean, max and min
// worker time, each ± its standard deviation, in milliseconds, since a
// priced superstep at this repository's scales takes a few of them.
func (s Summary) String() string {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return fmt.Sprintf("%.2fms±%.2fms  %.2fms±%.2fms  %.2fms±%.2fms (idle %.0f%%)",
		ms(s.Mean), ms(s.MeanStd), ms(s.Max), ms(s.MaxStd), ms(s.Min), ms(s.MinStd), 100*s.AvgIdleFraction)
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std /= float64(len(xs))
	return mean, math.Sqrt(std)
}
