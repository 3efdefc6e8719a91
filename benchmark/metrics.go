package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// metricDef declares one metric. BENCHMARK.json lists the same names,
// units and directions (TestManifestMatchesTables keeps them equal);
// README.md says where each comes from and what it is predicted to move.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the gated metrics. Every workload reports every one of
// them (the driver compares each workload × metric pair against the
// parent commit), so each is a kind of quantity all four workloads have;
// README.md maps each pair to the specific measurement behind it, and
// says why the timing bounds are as wide as the driver allows.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"op_p50_ms", "ms", lower, 0.25},
	{"op_slow_ms", "ms", lower, 0.25},
	{"rate_per_s", "1/s", higher, 0.25},
	{"phi", "ratio", higher, 0.03},
}

// perLayer are the ungated numbers of the traced run. A workload that
// does not exercise a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{Name: "graph.convert_s", Unit: "s", Better: lower},
	{Name: "graph.mutation_apply_ms", Unit: "ms", Better: lower},

	{Name: "pregel.supersteps", Unit: "count", Better: lower},
	{Name: "pregel.messages", Unit: "count", Better: lower},
	{Name: "pregel.superstep_s", Unit: "s", Better: lower},
	{Name: "pregel.msgs_per_s", Unit: "1/s", Better: higher},
	{Name: "pregel.first_iteration_ms", Unit: "ms", Better: lower},
	{Name: "pregel.adapt_messages", Unit: "count", Better: lower},
	{Name: "pregel.resize_messages", Unit: "count", Better: lower},

	{Name: "core.partition_s", Unit: "s", Better: lower},
	{Name: "core.partition_cold_s", Unit: "s", Better: lower},
	{Name: "core.adapt_s", Unit: "s", Better: lower},
	{Name: "core.resize_s", Unit: "s", Better: lower},
	{Name: "core.load_s", Unit: "s", Better: lower},
	{Name: "core.iterations", Unit: "count", Better: lower},
	{Name: "core.adapt_iterations", Unit: "count", Better: lower},
	{Name: "core.resize_iterations", Unit: "count", Better: lower},
	{Name: "core.phi", Unit: "ratio", Better: higher},
	{Name: "core.rho", Unit: "ratio", Better: lower},
	{Name: "core.adapt_phi", Unit: "ratio", Better: higher},
	{Name: "core.resize_phi", Unit: "ratio", Better: higher},
	{Name: "core.adapt_moved_frac", Unit: "ratio", Better: lower},
	{Name: "core.resize_moved_frac", Unit: "ratio", Better: lower},
	{Name: "core.adapt_msg_saving", Unit: "ratio", Better: higher},
	{Name: "core.alloc_mb", Unit: "MB", Better: lower},
	{Name: "core.allocs_k", Unit: "count", Better: lower},

	{Name: "api.lookup_server_p50_us", Unit: "us", Better: lower},
	{Name: "api.lookup_server_p99_us", Unit: "us", Better: lower},
	{Name: "api.mutate_server_p50_us", Unit: "us", Better: lower},
	{Name: "api.parse_mutation_us", Unit: "us", Better: lower},
	{Name: "api.watch_fanout_p50_us", Unit: "us", Better: lower},
	{Name: "api.refused_frac", Unit: "ratio", Better: lower},

	{Name: "serve.lookup_ns", Unit: "ns", Better: lower},
	{Name: "serve.submit_us", Unit: "us", Better: lower},
	{Name: "serve.stage_drain_p50_us", Unit: "us", Better: lower},
	{Name: "serve.stage_apply_p50_us", Unit: "us", Better: lower},
	{Name: "serve.stage_apply_p99_us", Unit: "us", Better: lower},
	{Name: "serve.stage_publish_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.stage_checkpoint_capture_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.coalesce_ratio", Unit: "ratio", Better: higher},
	{Name: "serve.deltas_per_batch", Unit: "ratio", Better: lower},
	{Name: "serve.restabilizations", Unit: "count", Better: lower},
	{Name: "serve.cut_ratio_end", Unit: "ratio", Better: lower},

	{Name: "wal.stage_journal_p50_us", Unit: "us", Better: lower},
	{Name: "wal.stage_journal_p99_us", Unit: "us", Better: lower},
	{Name: "wal.stage_checkpoint_write_p50_ms", Unit: "ms", Better: lower},
	{Name: "wal.group_depth", Unit: "ratio", Better: higher},
	{Name: "wal.syncs_per_batch", Unit: "ratio", Better: lower},
	{Name: "wal.journal_bytes_per_batch", Unit: "B", Better: lower},
	{Name: "wal.checkpoint_bytes_per_batch", Unit: "B", Better: lower},
	{Name: "wal.replayed_records", Unit: "count", Better: lower},
	{Name: "wal.data_dir_mb", Unit: "MB", Better: lower},
	{Name: "wal.recovery_divergence_frac", Unit: "ratio", Better: lower},

	{Name: "replica.hop_p50_ms", Unit: "ms", Better: lower},
	{Name: "replica.apply_lag_records_p50", Unit: "count", Better: lower},
	{Name: "replica.frames_per_batch", Unit: "ratio", Better: lower},
	{Name: "replica.bytes_per_batch", Unit: "B", Better: lower},
	{Name: "replica.reconnects", Unit: "count", Better: lower},
	{Name: "replica.divergence_frac", Unit: "ratio", Better: lower},

	{Name: "client.lookup_p50_us", Unit: "us", Better: lower},
	{Name: "client.lookup_p99_us", Unit: "us", Better: lower},
	{Name: "client.lookup_max_rps", Unit: "1/s", Better: higher},
	{Name: "client.lookup_all_p50_ms", Unit: "ms", Better: lower},
	{Name: "client.lookup_overhead_p50_us", Unit: "us", Better: lower},
	{Name: "client.visible_p50_ms", Unit: "ms", Better: lower},
	{Name: "client.visible_p99_ms", Unit: "ms", Better: lower},
	{Name: "client.replica_visible_p50_ms", Unit: "ms", Better: lower},
	{Name: "client.replica_visible_p99_ms", Unit: "ms", Better: lower},
	{Name: "client.mutate_max_bps", Unit: "1/s", Better: higher},
	{Name: "client.mutate_ack_p50_us", Unit: "us", Better: lower},
	{Name: "client.recovery_s", Unit: "s", Better: lower},
	{Name: "client.late_p50_us", Unit: "us", Better: lower},
	{Name: "client.late_max_ms", Unit: "ms", Better: lower},
	{Name: "client.samples_lookup", Unit: "count", Better: higher},
	{Name: "client.samples_visible", Unit: "count", Better: higher},

	{Name: "proc.leader_cpu_us_per_lookup", Unit: "us", Better: lower},
	{Name: "proc.leader_cpu_us_per_batch", Unit: "us", Better: lower},
	{Name: "proc.follower_cpu_us_per_batch", Unit: "us", Better: lower},
	{Name: "proc.loadgen_cpu_share", Unit: "ratio", Better: lower},
	{Name: "proc.leader_peak_rss_mb", Unit: "MB", Better: lower},
	{Name: "proc.follower_peak_rss_mb", Unit: "MB", Better: lower},
	{Name: "proc.bench_peak_rss_mb", Unit: "MB", Better: lower},
	{Name: "proc.build_s", Unit: "s", Better: lower},
	{Name: "proc.trace_overhead_frac", Unit: "ratio", Better: lower},
}

// exactCounts are the layer metrics that depend only on the seeded
// inputs, so two runs of one commit must agree on them to the last digit.
var exactCounts = []string{
	"pregel.supersteps", "pregel.messages", "pregel.adapt_messages", "pregel.resize_messages",
	"core.iterations", "core.adapt_iterations", "core.resize_iterations",
	"core.phi", "core.rho", "core.adapt_phi", "core.resize_phi",
	"core.adapt_moved_frac", "core.resize_moved_frac", "core.adapt_msg_saving",
}

// report collects one run's numbers, operation counts and failed checks.
type report struct {
	workload  string
	values    map[string]float64
	pools     map[string][]float64 // per-window values, pooled over boots before they become a metric
	attempted int
	failed    int
	mu        sync.Mutex // note is called from load-generating goroutines
	failures  []string   // first few failures, for the human-readable part
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]float64{}, pools: map[string][]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// pool adds per-window values to the named pool.
func (r *report) pool(name string, vs []float64) { r.pools[name] = append(r.pools[name], vs...) }

// ops counts n attempted operations of which bad failed.
func (r *report) ops(n, bad int) {
	r.attempted += n
	r.failed += bad
}

// note records why something failed, without counting it.
func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check and records why it failed.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.note(format, args...)
	}
}

func (r *report) correct() bool { return r.failed == 0 }

// mergeMedians fills r from independent measurements of the same
// workload: every number becomes the median over parts; pools, operation
// counts and failed checks add up.
func (r *report) mergeMedians(parts []*report) {
	samples := map[string][]float64{}
	for _, p := range parts {
		for name, v := range p.values {
			samples[name] = append(samples[name], v)
		}
		for name, vs := range p.pools {
			r.pool(name, vs)
		}
		r.ops(p.attempted, p.failed)
		r.failures = append(r.failures, p.failures...)
	}
	for name, vs := range samples {
		r.set(name, median(vs))
	}
}

// result is the line a run prints last, as the driver parses it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric of defs by name with its unit, then the one
// JSON line the driver reads.
func (r *report) print(w io.Writer, defs []metricDef) error {
	out := result{r.correct(), r.attempted, r.failed, map[string]metricValue{}}
	for _, d := range defs {
		v := r.values[d.Name]
		out.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Fprintf(w, "%-18s %-40s %14.6g %s\n", r.workload, d.Name, v, d.Unit)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "%-18s FAILED: %s\n", r.workload, f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
