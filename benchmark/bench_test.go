package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro"
	"repro/internal/api/client"
	"repro/internal/serve"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentilesAgainstSortedReferences(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	s := sortedCopy(xs)
	if !slices.IsSorted(s) || xs[0] != 9 {
		t.Fatalf("sortedCopy must sort a copy: %v %v", s, xs)
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {99, 9.91}, {100, 10}} {
		if got := percentile(s, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if median(nil) != 0 || percentile([]float64{7}, 99) != 7 {
		t.Error("degenerate inputs")
	}
	if got := quantile(xs, 90); !near(got, 9.1) || xs[0] != 9 {
		t.Errorf("quantile(90) = %v, want 9.1, input untouched", got)
	}
}

// Windows hold what completed inside them; the partial window at the end
// of a phase and samples beyond it are dropped, empty windows have no
// median but a rate of 0.
func TestWindows(t *testing.T) {
	ms := time.Millisecond
	samples := []timed{{10 * ms, 3}, {90 * ms, 1}, {99 * ms, 2}, {100 * ms, 7}, {310 * ms, 9}, {390 * ms, 5}, {450 * ms, 4}}
	if got := windowMedians(samples, 100*ms, 450*ms); !slices.Equal(got, []float64{2, 7, 7}) {
		t.Errorf("windowMedians = %v, want [2 7 7]", got)
	}
	if got := windowRates(samples, 100*ms, 450*ms); !slices.Equal(got, []float64{30, 10, 0, 20}) {
		t.Errorf("windowRates = %v, want [30 10 0 20]", got)
	}
	if got := values(samples[:2]); !slices.Equal(got, []float64{3, 1}) {
		t.Errorf("values = %v", got)
	}
	// The quiet decile follows the program, not a slow spell of the host.
	calm, spell := []float64{10, 10, 11, 10, 10, 11, 10, 10}, []float64{10, 10, 11, 14, 15, 14, 13, 10}
	if quietLatency(calm) != quietLatency(spell) || median(calm) == median(spell) {
		t.Errorf("quiet decile %v %v, medians %v %v", quietLatency(calm), quietLatency(spell), median(calm), median(spell))
	}
	if got := quietRate([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}); got != 10 {
		t.Errorf("quietRate = %v, want 10", got)
	}
}

// The open loop must time every request from its place on the grid, not
// from when the previous one finished, and report how late it sent.
func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	ms := time.Millisecond
	plan := openLoopPlan{Bodies: make([]string, 4), Due: []time.Duration{0, 10 * ms, 20 * ms, 30 * ms}}
	cost := []time.Duration{25 * ms, 1 * ms, 1 * ms, 2 * ms} // the first request stalls
	t0 := time.Unix(1000, 0)
	clock := t0
	var slept []time.Duration
	due, late, ack, bad := runOpenLoop(plan, t0,
		func() time.Time { return clock },
		func(d time.Duration) { slept = append(slept, d); clock = clock.Add(d) },
		func(i int) error {
			clock = clock.Add(cost[i])
			if i == 2 {
				return errors.New("refused")
			}
			return nil
		})
	for i, d := range due {
		if want := t0.Add(plan.Due[i]); !d.Equal(want) {
			t.Errorf("due[%d] = %v, want the grid instant %v", i, d, want)
		}
	}
	wantLate := []float64{0, 0.015, 0.006, 0}
	wantAck := []float64{0.025, 0.001, 0.001, 0.002}
	for i := range wantLate {
		if !near(late[i], wantLate[i]) || !near(ack[i], wantAck[i]) {
			t.Errorf("request %d: late %v ack %v, want %v %v", i, late[i], ack[i], wantLate[i], wantAck[i])
		}
	}
	if len(slept) != 1 || slept[0] != 3*ms {
		t.Errorf("slept %v, want only the 3 ms before the last request", slept)
	}
	if bad != 1 {
		t.Errorf("bad = %d, want 1", bad)
	}
	// Latency from the due time counts the stall against request 1 and 2.
	seen := []time.Time{t0.Add(30 * ms), t0.Add(31 * ms)}
	if got := sinceDue(seen, due[1:]); !near(got[0], 0.020) || !near(got[1], 0.011) {
		t.Errorf("sinceDue = %v", got)
	}
}

func TestFeedMatchesMarkersOnFirstArrival(t *testing.T) {
	const n0 = 4
	f := &feed{n0: n0}
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*1e6) }
	grow := func(seq uint64, n int, label int32) *serve.Delta {
		d := &serve.Delta{Seq: seq, N: n}
		if n > 0 {
			d.Runs = []serve.LabelRun{{Start: n - 1, Labels: []int32{label}}}
		}
		return d
	}
	steps := []struct {
		d  *serve.Delta
		ms int
	}{
		{&serve.Delta{Seq: 1, K: 2, N: n0, Runs: []serve.LabelRun{{Start: 0, Labels: []int32{0, 1, 0, 1}}}}, 1}, // baseline
		{grow(2, n0+1, 1), 10},     // marker 0
		{grow(3, n0+1, 0), 20},     // same N again (a relabel): not a new arrival
		{&serve.Delta{Seq: 4}, 25}, // counter-only delta, N = 0 means unchanged
		{grow(5, n0+3, 1), 30},     // markers 1 and 2 coalesced into one jump
		{grow(6, n0+3, 0), 40},     // repeat
	}
	for _, s := range steps {
		if err := f.observe(s.d, at(s.ms)); err != nil {
			t.Fatal(err)
		}
	}
	want := []time.Time{at(10), at(30), at(30)}
	if !slices.EqualFunc(f.seen, want, time.Time.Equal) {
		t.Errorf("seen = %v, want %v", f.seen, want)
	}
	if want := []int32{0, 1, 0, 1, 0, 0, 0}; !slices.Equal(f.labels, want) {
		t.Errorf("labels rebuilt from the feed = %v, want %v", f.labels, want)
	}
	if err := f.observe(&serve.Delta{Seq: 7, Runs: []serve.LabelRun{{Start: 99, Labels: []int32{1}}}}, at(50)); err == nil {
		t.Error("a run outside the label map must be an error (a missed delta)")
	}
}

func TestHistogramDeltaQuantiles(t *testing.T) {
	expo := func(b1, b2, b3, inf float64) string {
		return "# TYPE spinner_stage_duration_seconds histogram\n" +
			`spinner_stage_duration_seconds_bucket{stage="apply",le="0.001"} ` + ftoa(b1) + "\n" +
			`spinner_stage_duration_seconds_bucket{stage="apply",le="0.002"} ` + ftoa(b2) + "\n" +
			`spinner_stage_duration_seconds_bucket{stage="apply",le="0.004"} ` + ftoa(b3) + "\n" +
			`spinner_stage_duration_seconds_bucket{stage="apply",le="+Inf"} ` + ftoa(inf) + "\n" +
			`spinner_stage_duration_seconds_count{stage="apply"} ` + ftoa(inf) + "\n" +
			`spinner_stage_duration_seconds_bucket{stage="drain",le="+Inf"} 5` + "\n" +
			"# TYPE spinner_batches_applied_total counter\nspinner_batches_applied_total " + ftoa(inf) + "\n"
	}
	parse := func(text string) scrape {
		fams, err := client.ParseProm(text)
		if err != nil {
			t.Fatal(err)
		}
		s := scrape{fams: map[string]*client.Family{}}
		for _, f := range fams {
			s.fams[f.Name] = f
		}
		return s
	}
	// Before: 100 fast observations. Between the scrapes: 10 in (1,2] ms
	// and 10 in (2,4] ms. The earlier hundred must not drag the median down.
	before, after := parse(expo(100, 100, 100, 100)), parse(expo(100, 110, 120, 120))
	name := "spinner_stage_duration_seconds"
	if got := after.quantileSince(before, name, stage("apply"), 0.50); !near(got, 0.002) {
		t.Errorf("delta p50 = %v, want 0.002", got)
	}
	if got := after.quantileSince(before, name, stage("apply"), 0.75); !near(got, 0.003) {
		t.Errorf("delta p75 = %v, want 0.003 (halfway into the (2,4] ms bucket)", got)
	}
	if got := after.quantileSince(scrape{}, name, stage("apply"), 0.50); got >= 0.001 {
		t.Errorf("p50 since boot = %v, want inside the first bucket", got)
	}
	if got := after.quantileSince(before, name, stage("journal"), 0.50); got != 0 {
		t.Errorf("a series with no observations must read 0, got %v", got)
	}
	if got := after.counterSince(before, "spinner_batches_applied_total"); got != 20 {
		t.Errorf("counterSince = %v, want 20", got)
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// smallGraph is the weighted graph the input tests mutate.
func smallGraph(seed uint64) *repro.Weighted {
	return repro.Convert(repro.WattsStrogatz(2000, 8, 0.3, seed))
}

// allInputs fingerprints everything generated from one seed.
func allInputs(seed uint64) [32]byte {
	plan := planOpenLoop(seed, 5000, 400, 200*time.Millisecond)
	m := growth(smallGraph(1), seed) // same graph: only the mutation's seed varies
	var adjacency []any
	for _, ng := range tinyBatch.graphs(seed) {
		w := repro.Convert(ng.g)
		for u := 0; u < w.NumVertices(); u++ {
			adjacency = append(adjacency, w.Neighbors(repro.VertexID(u)))
		}
	}
	return fingerprint(adjacency,
		zipfIDs(seed, 5000, 4096), uniformIDs(seed, 0, 5000, 4096), uniformIDs(seed, 1, 5000, 4096),
		edgeBatches(seed, "trickle", 5000, 64), edgeBatches(seed, "flood/1", 5000, 64),
		plan.Bodies, plan.Due, plan.Markers,
		m.NewVertices, m.NewEdges, m.RemovedEdges,
	)
}

func TestSameSeedSameInputs(t *testing.T) {
	if allInputs(7) != allInputs(7) {
		t.Error("the same seed must yield byte-identical inputs")
	}
	if allInputs(7) == allInputs(8) {
		t.Error("a different seed must yield different inputs")
	}
	if slices.Equal(uniformIDs(7, 0, 5000, 64), uniformIDs(7, 1, 5000, 64)) {
		t.Error("connections must not replay each other's id stream")
	}
}

func TestGeneratedInputsAreValid(t *testing.T) {
	ids := zipfIDs(3, 5000, 1<<14)
	count := map[int64]int{}
	for _, v := range ids {
		if v < 0 || v >= 5000 {
			t.Fatalf("zipf id %d outside [0,5000)", v)
		}
		count[v]++
	}
	top := 0
	for _, c := range count {
		top = max(top, c)
	}
	if top < len(ids)/20 {
		t.Errorf("hottest id drew %d of %d lookups: not Zipf-skewed", top, len(ids))
	}

	plan := planOpenLoop(3, 5000, 400, time.Second)
	if len(plan.Bodies) != 400 || len(plan.Markers) != 100 || plan.Due[1] != 2500*time.Microsecond {
		t.Errorf("plan: %d bodies, %d markers, step %v", len(plan.Bodies), len(plan.Markers), plan.Due[1])
	}

	// The growth mutation must apply cleanly: fresh additions only, and
	// removals of edges that exist.
	w := smallGraph(1)
	n, e := w.NumVertices(), w.NumEdges()
	m := growth(w, 3)
	if _, err := m.Apply(w); err != nil {
		t.Fatal(err)
	}
	if w.NumVertices() != n+n/50 {
		t.Errorf("grew to %d vertices, want +2 %% of %d", w.NumVertices(), n)
	}
	if want := e + int64(len(m.NewEdges)-len(m.RemovedEdges)); w.NumEdges() != want {
		t.Errorf("%d edges after growth, want %d", w.NumEdges(), want)
	}
	if int64(len(m.RemovedEdges)) != e/200 {
		t.Errorf("%d removals, want 0.5 %% of %d", len(m.RemovedEdges), e)
	}
}

// tinyBatch runs the two library workloads, checks included, in a second.
var tinyBatch = batchConfig{
	wsN: 2000, wsDeg: 8, wsBeta: 0.3, baN: 2000, baM: 4,
	k: 8, newK: 10, setups: 2, minReps: 2, maxReps: 2,
}

func TestBatchWorkloadsSmoke(t *testing.T) {
	for name, run := range map[string]func(runConfig, batchConfig, *report) error{
		"partition-scratch": runPartitionScratch, "adapt-elastic": runAdaptElastic,
	} {
		for _, tr := range []*tracer{nil, newTracer()} {
			rep := newReport(name)
			if err := run(runConfig{seed: 5, seconds: 0, tr: tr}, tinyBatch, rep); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !rep.correct() || rep.attempted == 0 {
				t.Errorf("%s: %d of %d failed: %v", name, rep.failed, rep.attempted, rep.failures)
			}
			for _, d := range endToEnd {
				if v := rep.values[d.Name]; !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, v)
				}
			}
			if tr != nil && tr.count() == 0 {
				t.Errorf("%s: traced run recorded no span", name)
			}
		}
	}
}

// A labeling compared against itself shifted by one must fail the run.
func TestBrokenLabelsFailTheChecks(t *testing.T) {
	w := smallGraph(2)
	p, err := partitioner(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.PartitionWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	good := newReport("t")
	checkLabels(good, "same", w, res.Labels, 8, slices.Clone(res.Labels))
	if !good.correct() {
		t.Fatalf("a correct labeling failed: %v", good.failures)
	}
	shifted := make([]int32, len(res.Labels))
	for i, l := range res.Labels {
		shifted[i] = (l + 1) % 8
	}
	bad := newReport("t")
	checkLabels(bad, "shifted", w, res.Labels, 8, shifted)
	if bad.correct() {
		t.Error("labels that differ from the previous repetition must fail")
	}
	shifted[0] = 8
	bad = newReport("t")
	checkLabels(bad, "out of range", w, shifted, 8, nil)
	if bad.correct() {
		t.Error("a label outside [0,k) must fail")
	}
	// One partition holding everything: perfectly local, hopelessly unbalanced.
	bad = newReport("t")
	checkLabels(bad, "unbalanced", w, make([]int32, len(res.Labels)), 8, nil)
	if bad.correct() {
		t.Error("ρ = k must fail the balance check")
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go are
// what the program prints. They must name the same metrics.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", m.EndToEnd, endToEnd)
	}
	if !slices.Equal(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", m.PerLayer, perLayer)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range m.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(names, listed) {
		t.Errorf("workloads: manifest %v, program %v", listed, names)
	}
	for _, name := range exactCounts {
		if !slices.ContainsFunc(perLayer, func(d metricDef) bool { return d.Name == name }) {
			t.Errorf("exact count %s is not a per-layer metric", name)
		}
	}
}
