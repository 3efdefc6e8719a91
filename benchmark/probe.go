package main

import (
	"fmt"
	"strings"

	"repro"
	"repro/internal/api"
	"repro/internal/serve"
)

// In-process probes: the same id and batch streams the daemons received,
// replayed against the layer directly, so the budget can say how much of a
// request's time the layer itself accounts for. Traced runs only.

// probeStore boots an in-memory store over the graph spinnerd -synthetic
// generates (Watts–Strogatz, out-degree 10, β=0.2).
func probeStore(seed uint64) (*serve.Store, error) {
	opts := repro.DefaultOptions(serveK)
	opts.Seed = seed
	st, err := serve.Bootstrap(repro.WattsStrogatz(serveN, 10, 0.2, seed), serve.Config{Options: opts})
	if err != nil {
		return nil, fmt.Errorf("probe store: %w", err)
	}
	return st, nil
}

// probeLookup returns the cost of one serve.Store.Lookup in nanoseconds.
func probeLookup(tr *tracer, seed uint64, ids []int64) (float64, error) {
	st, err := probeStore(seed)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	misses := 0
	d := tr.timed("probe.lookup", -1, 0, func() {
		for _, v := range ids {
			if _, ok := st.Lookup(repro.VertexID(v)); !ok {
				misses++
			}
		}
	})
	if misses > 0 {
		return 0, fmt.Errorf("probe: %d lookups missed", misses)
	}
	return float64(d.Nanoseconds()) / float64(len(ids)), nil
}

// probeWrite returns the median cost, in microseconds, of parsing one of
// the open loop's bodies and of submitting it to an in-memory store and
// waiting until it is applied.
func probeWrite(tr *tracer, seed uint64, plan openLoopPlan) (parseUS, submitUS float64, err error) {
	st, err := probeStore(seed)
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	var parse, submit []float64
	for i, body := range plan.Bodies[:min(400, len(plan.Bodies))] {
		var m *repro.Mutation
		var err error
		parse = append(parse, tr.timed("probe.parse", -1, int64(i), func() {
			m, err = api.ParseMutation(strings.NewReader(body))
		}).Seconds())
		if err != nil {
			return 0, 0, fmt.Errorf("probe parse: %w", err)
		}
		d := tr.timed("probe.submit", -1, int64(i), func() {
			if err = st.Submit(m); err == nil {
				err = st.Quiesce()
			}
		})
		if err != nil {
			return 0, 0, fmt.Errorf("probe submit: %w", err)
		}
		submit = append(submit, d.Seconds())
	}
	return median(parse) * 1e6, median(submit) * 1e6, nil
}
