package main

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/api"
	"repro/internal/api/client"
)

// scrape is one daemon's observable state at an instant: the /v1/metrics
// exposition, /v1/stats, and the process's CPU time. Layer numbers are
// differences between the scrape before a phase and the one after it.
type scrape struct {
	fams  map[string]*client.Family
	stats *api.StatsResponse
	cpu   time.Duration
}

func takeScrape(d *daemon) (scrape, error) {
	ctx := context.Background()
	text, err := d.cli.MetricsText(ctx)
	if err != nil {
		return scrape{}, fmt.Errorf("scrape %s metrics: %w", d.name, err)
	}
	fams, err := client.ParseProm(text)
	if err != nil {
		return scrape{}, err
	}
	st, err := d.cli.Stats(ctx)
	if err != nil {
		return scrape{}, fmt.Errorf("scrape %s stats: %w", d.name, err)
	}
	s := scrape{fams: map[string]*client.Family{}, stats: st, cpu: cpuTime(d.cmd.Process.Pid)}
	for _, f := range fams {
		s.fams[f.Name] = f
	}
	return s, nil
}

// counter returns the value of an unlabelled series (0 when absent: a
// series a node never touched is not exposed).
func (s scrape) counter(name string) float64 {
	f := s.fams[name]
	if f == nil || len(f.Samples) == 0 {
		return 0
	}
	return f.Samples[0].Value
}

// counterSince is how much the counter grew since the earlier scrape.
func (s scrape) counterSince(before scrape, name string) float64 {
	return s.counter(name) - before.counter(name)
}

// histDelta returns the histogram of the observations made between two
// scrapes of one family: every cumulative sample minus its earlier value.
// before may be nil (nothing observed yet when the first scrape ran).
func histDelta(before, after *client.Family) *client.Family {
	if after == nil {
		return nil
	}
	earlier := map[string]float64{}
	if before != nil {
		for _, s := range before.Samples {
			earlier[seriesKey(s)] = s.Value
		}
	}
	d := &client.Family{Name: after.Name, Type: after.Type}
	for _, s := range after.Samples {
		s.Value -= earlier[seriesKey(s)]
		d.Samples = append(d.Samples, s)
	}
	return d
}

func seriesKey(s client.Sample) string {
	key := s.Name
	for _, k := range slices.Sorted(maps.Keys(s.Labels)) {
		key += "|" + k + "=" + s.Labels[k]
	}
	return key
}

// quantileSince is quantile q, in seconds (or the family's raw unit), of
// the observations a histogram series took between two scrapes; 0 when it
// took none.
func (s scrape) quantileSince(before scrape, name string, match map[string]string, q float64) float64 {
	d := histDelta(before.fams[name], s.fams[name])
	if d == nil {
		return 0
	}
	v, ok := client.HistQuantile(d, match, q)
	if !ok {
		return 0
	}
	return v
}

func stage(name string) map[string]string { return map[string]string{"stage": name} }

func route(name string) map[string]string {
	return map[string]string{"route": name, "status": "2xx"}
}
