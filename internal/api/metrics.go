package api

import (
	"net/http"
	"strings"

	"repro/internal/metrics"
)

// PromContentType is the Prometheus text exposition format version the
// /v1/metrics endpoint emits.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// handleMetrics serves GET /v1/metrics: every series of the store's
// registry (counters, gauges, histograms) in Prometheus text format.
// Rendering is one append into one buffer — no reflection, no
// dependencies — so scraping is cheap enough for tight intervals. Family
// order is registration order and not part of the contract.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", PromContentType)
	_, _ = w.Write(s.st.Metrics().AppendProm(nil))
}

// LatencySummary is the /v1/stats headline view of one histogram:
// quantiles in the series' natural unit (seconds for duration series,
// raw values otherwise) plus the observation count.
type LatencySummary struct {
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
	Count int64   `json:"count"`
}

// latencySection summarizes every non-empty histogram in the registry
// under a compact key: the metric name stripped of the spinner_ prefix
// and unit suffixes, with label values appended — e.g.
// spinner_stage_duration_seconds{stage="apply"} becomes "stage:apply"
// and spinner_http_request_duration_seconds{route="lookup",status="2xx"}
// becomes "http_request:lookup:2xx".
func latencySection(reg *metrics.Registry) map[string]LatencySummary {
	out := make(map[string]LatencySummary)
	reg.Each(func(se *metrics.Series) {
		if se.Kind != metrics.KindHistogram {
			return
		}
		snap := se.Hist.Snapshot()
		if snap.Count == 0 {
			return
		}
		scale := 1.0
		if se.Unit == metrics.UnitSeconds {
			scale = 1e-9
		}
		out[latencyKey(se)] = LatencySummary{
			P50:   float64(snap.Quantile(0.50)) * scale,
			P90:   float64(snap.Quantile(0.90)) * scale,
			P99:   float64(snap.Quantile(0.99)) * scale,
			Max:   float64(snap.Max) * scale,
			Count: snap.Count,
		}
	})
	return out
}

func latencyKey(se *metrics.Series) string {
	key := strings.TrimPrefix(se.Name, "spinner_")
	key = strings.TrimSuffix(key, "_seconds")
	key = strings.TrimSuffix(key, "_duration")
	for _, l := range se.Labels {
		key += ":" + l.Value
	}
	return key
}
