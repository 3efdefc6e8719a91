package cluster

import (
	"math"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/gen"
	"repro/internal/pregel"
)

func mkStats(edges, local, remote []int64) pregel.SuperstepStats {
	return pregel.SuperstepStats{
		ComputeEdges:   edges,
		SentLocal:      local,
		SentRemote:     remote,
		Received:       make([]int64, len(edges)),
		ReceivedRemote: make([]int64, len(edges)),
	}
}

func TestSuperstepTiming(t *testing.T) {
	m := CostModel{ComputePerEdge: 1, LocalMsg: 10, RemoteMsg: 100, Barrier: 0}
	st := mkStats([]int64{5, 0}, []int64{1, 0}, []int64{0, 2})
	tim := m.Superstep(st)
	// worker0: 5*1 + 1*10 = 15; worker1: 2*100 = 200.
	if tim.PerWorker[0] != 15 || tim.PerWorker[1] != 200 {
		t.Fatalf("per-worker=%v", tim.PerWorker)
	}
	if tim.Max != 200 || tim.Min != 15 {
		t.Fatalf("max=%v min=%v", tim.Max, tim.Min)
	}
	if tim.Mean != (15+200)/2 {
		t.Fatalf("mean=%v", tim.Mean)
	}
}

func TestIdleFraction(t *testing.T) {
	tim := Timing{Mean: 50, Max: 100}
	if got := tim.IdleFraction(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("idle=%v, want 0.5", got)
	}
	if (Timing{}).IdleFraction() != 0 {
		t.Fatal("zero timing idle nonzero")
	}
}

func TestBalancedNoIdle(t *testing.T) {
	m := CostModel{ComputePerEdge: 1, LocalMsg: 1, RemoteMsg: 1}
	st := mkStats([]int64{10, 10}, []int64{5, 5}, []int64{5, 5})
	tim := m.Superstep(st)
	if tim.IdleFraction() != 0 {
		t.Fatalf("balanced idle=%v", tim.IdleFraction())
	}
}

func TestTotalAddsBarrier(t *testing.T) {
	m := CostModel{ComputePerEdge: 1, Barrier: 1000}
	stats := []pregel.SuperstepStats{
		mkStats([]int64{10}, []int64{0}, []int64{0}),
		mkStats([]int64{20}, []int64{0}, []int64{0}),
	}
	if got := m.Total(stats); got != 1000+10+1000+20 {
		t.Fatalf("total=%v", got)
	}
}

func TestSummarize(t *testing.T) {
	m := CostModel{ComputePerEdge: 1}
	stats := []pregel.SuperstepStats{
		mkStats([]int64{10, 20}, []int64{0, 0}, []int64{0, 0}),
		mkStats([]int64{10, 20}, []int64{0, 0}, []int64{0, 0}),
		mkStats([]int64{0, 0}, []int64{0, 0}, []int64{0, 0}), // skipped: no work
	}
	s := m.Summarize(stats)
	if s.Max != 20 || s.Min != 10 || s.Mean != 15 {
		t.Fatalf("summary=%+v", s)
	}
	if s.MaxStd != 0 {
		t.Fatalf("identical supersteps give std=%v", s.MaxStd)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

// TestSummaryStringShowsMilliseconds: a Table IV row of supersteps that
// take milliseconds prints them, not 0.00s.
func TestSummaryStringShowsMilliseconds(t *testing.T) {
	s := Summary{Mean: 4083 * time.Microsecond, MeanStd: 120 * time.Microsecond,
		Max: 4550 * time.Microsecond, MaxStd: 10 * time.Microsecond,
		Min: 3 * time.Millisecond, AvgIdleFraction: 0.11}
	want := "4.08ms±0.12ms  4.55ms±0.01ms  3.00ms±0.00ms (idle 11%)"
	if got := s.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := (CostModel{}).Summarize(nil)
	if s.Mean != 0 || s.AvgIdleFraction != 0 {
		t.Fatalf("empty summary=%+v", s)
	}
}

// End-to-end: a locality-aware placement must yield lower simulated
// runtime and lower idle fraction than hash placement — the Fig. 9 /
// Table IV effect.
func TestPartitioningImprovesSimulatedRuntime(t *testing.T) {
	g, truth := gen.PlantedPartition(3000, 8, 12, 2, 21)
	const workers = 8
	model := Default()

	_, hashRes, err := apps.PageRank(g, 10, apps.RunConfig{NumWorkers: workers, Placement: apps.HashPlacement(workers)})
	if err != nil {
		t.Fatal(err)
	}
	_, partRes, err := apps.PageRank(g, 10, apps.RunConfig{NumWorkers: workers, Placement: apps.PlacementFromLabels(truth, workers)})
	if err != nil {
		t.Fatal(err)
	}
	hashTime := model.Total(hashRes.Stats)
	partTime := model.Total(partRes.Stats)
	if partTime >= hashTime {
		t.Fatalf("partitioned runtime %v not better than hash %v", partTime, hashTime)
	}
	t.Logf("hash=%v partitioned=%v improvement=%.0f%%", hashTime, partTime,
		100*(1-float64(partTime)/float64(hashTime)))
}

func TestDefaultModelOrdering(t *testing.T) {
	m := Default()
	if !(m.RemoteMsg > m.LocalMsg && m.LocalMsg >= m.ComputePerEdge) {
		t.Fatalf("cost ordering broken: %+v", m)
	}
	if m.Barrier < time.Microsecond {
		t.Fatal("barrier suspiciously small")
	}
}
