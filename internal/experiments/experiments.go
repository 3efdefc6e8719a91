// Package experiments states the claims of the Spinner paper's evaluation
// (§V) as one table, Claims, and checks each on the synthetic dataset
// analogues of internal/gen. A row names a table or figure of the paper,
// says what the paper claims of it and with what tolerance the row checks
// it, and runs the experiment: it returns the measured values and a
// verdict. Where the paper's number depends on a real dataset, the row
// checks the ordering or the trend, not the number.
//
// A verdict is pass, fail, or a deviation: a part of the claim that does
// not hold at this scale, with the reason the row states for it. Balance
// claims are checked against c plus the granularity term, the heaviest
// vertex's share of one partition's ideal load: an indivisible hub can
// exceed the slack capacity at a few thousand vertices, which it cannot on
// the paper's graphs of millions.
//
// cmd/experiments prints the table, and REPRODUCTION.md is its output at
// the default scale. TestClaims runs every row that reads no wall clock at
// a small scale.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Config scales and seeds a run of the claims.
type Config struct {
	// Scale is the vertex count for dataset analogues (default 20 000).
	Scale int
	// Seed drives every random choice.
	Seed uint64
	// Workers is the Pregel worker count; 0 takes core's default (8, on
	// every host). Rows that price simulated workers fix their own.
	Workers int
}

func (c Config) scale() int {
	if c.Scale <= 0 {
		return 20000
	}
	return c.Scale
}

// load builds dataset d at the configured scale and converts it.
func (c Config) load(d gen.Dataset) (*graph.Graph, *graph.Weighted) {
	g := gen.Load(d, c.scale(), c.Seed)
	return g, graph.Convert(g)
}

// partitioner returns a Spinner partitioner in the paper's configuration
// (§V-A), changed by mod when it is not nil.
func (c Config) partitioner(k int, mod func(*core.Options)) (*core.Partitioner, error) {
	o := core.DefaultOptions(k)
	o.Seed = c.Seed
	o.NumWorkers = c.Workers
	if mod != nil {
		mod(&o)
	}
	return core.NewPartitioner(o)
}

// spinner partitions w from scratch into k parts.
func (c Config) spinner(w *graph.Weighted, k int, mod func(*core.Options)) (*core.Result, error) {
	p, err := c.partitioner(k, mod)
	if err != nil {
		return nil, err
	}
	return p.PartitionWeighted(w)
}

// granularity is the heaviest vertex's weighted degree over T/k, the ideal
// load of one partition: ρ ≤ c holds only up to this term.
func granularity(w *graph.Weighted, k int) float64 {
	var total, heaviest float64
	for v := range w.NumVertices() {
		d := float64(w.WeightedDegree(graph.VertexID(v)))
		total += d
		heaviest = max(heaviest, d)
	}
	return heaviest / (total / float64(k))
}

// Claim is one row of the scoreboard.
type Claim struct {
	// ID names the row, as cmd/experiments -exp selects it: the paper's
	// table or figure.
	ID string
	// Paper is what the paper claims, and the tolerance the row allows.
	Paper string
	// WallClock marks a row whose claim is about wall-clock time. It runs
	// only in cmd/experiments: no tier-1 test reads a clock.
	WallClock bool
	// Run runs the experiment at cfg's scale.
	Run func(cfg Config) (Outcome, error)
}

// Outcome is what a row measured and the verdict on its claim.
type Outcome struct {
	// Measured lists the values the verdict rests on.
	Measured []string
	// Failed lists each part of the claim that did not hold.
	Failed []string
	// Deviations lists each part that did not hold for a reason the row
	// states: a known effect of the scale, not a defect.
	Deviations []string
}

// measure records a measured value.
func (o *Outcome) measure(format string, args ...any) {
	o.Measured = append(o.Measured, fmt.Sprintf(format, args...))
}

// expect records a failure when ok is false.
func (o *Outcome) expect(ok bool, format string, args ...any) {
	if !ok {
		o.Failed = append(o.Failed, fmt.Sprintf(format, args...))
	}
}

// deviate records a deviation, what failed and why, when ok is false.
func (o *Outcome) deviate(ok bool, reason, format string, args ...any) {
	if !ok {
		o.Deviations = append(o.Deviations, fmt.Sprintf(format, args...)+" — "+reason)
	}
}

// Verdict is "pass", "FAIL: …" naming what failed, or "deviation: …"
// naming what did not hold and why.
func (o Outcome) Verdict() string {
	switch {
	case len(o.Failed) > 0:
		return "FAIL: " + strings.Join(o.Failed, "; ")
	case len(o.Deviations) > 0:
		return "deviation: " + strings.Join(o.Deviations, "; ")
	default:
		return "pass"
	}
}
