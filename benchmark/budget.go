package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// budgetRow is one layer's share of a request's end-to-end median.
type budgetRow struct {
	layer, what string
	us          float64 // p50 in microseconds
	onPath      bool    // counts toward the end-to-end sum
}

// budgetTable renders rows against the end-to-end p50, with the part no
// row explains shown as a row of its own: rows on the path plus the
// remainder sum to the end-to-end p50 by construction, and a large or
// negative remainder says the rows are the wrong model of the request.
func budgetTable(title, e2eName string, e2eUS float64, rows []budgetRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\nEnd to end: `%s` p50 = %.1f µs.\n\n", title, e2eName, e2eUS)
	b.WriteString("| layer | what | p50 µs | share of end-to-end |\n|---|---|---:|---:|\n")
	explained := 0.0
	for _, r := range rows {
		share := fmt.Sprintf("%.1f %%", 100*ratio(r.us, e2eUS))
		if r.onPath {
			explained += r.us
		} else {
			share = "off the path"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", r.layer, r.what, micros(r.us), share)
	}
	fmt.Fprintf(&b, "| — | **unexplained remainder** | %.1f | %.1f %% |\n", e2eUS-explained, 100*ratio(e2eUS-explained, e2eUS))
	fmt.Fprintf(&b, "| | **sum** | %.1f | 100.0 %% |\n\n", e2eUS)
	return b.String()
}

// micros keeps three decimals below a microsecond (a store lookup is ten
// nanoseconds) and one above.
func micros(us float64) string {
	if us < 1 {
		return fmt.Sprintf("%.3f", us)
	}
	return fmt.Sprintf("%.1f", us)
}

func lookupBudget(rep *report) string {
	v := rep.values
	server, core := v["api.lookup_server_p50_us"], v["serve.lookup_ns"]/1e3
	return budgetTable("Lookup (serve-read, phase A)", "client.lookup_p50_us", v["client.lookup_p50_us"], []budgetRow{
		{"api", "handler, server side, minus the store lookup", server - core, true},
		{"serve", "`Store.Lookup` (in-process probe)", core, true},
	}) + "The remainder is `client.lookup_overhead_p50_us`: the loopback wire, the client's\n" +
		"request encoding and JSON decoding, and scheduling on both sides. A faster\n" +
		"`Store.Lookup` is predicted to move nothing end to end.\n\n"
}

func mutationBudget(rep *report) string {
	v := rep.values
	ack, server, parse := v["client.mutate_ack_p50_us"], v["api.mutate_server_p50_us"], v["api.parse_mutation_us"]
	leader := budgetTable("Marker mutation to the leader's stream (serve-write, phase A)", "client.visible_p50_ms", v["client.visible_p50_ms"]*1e3, []budgetRow{
		{"client", "open loop ran late", v["client.late_p50_us"], true},
		{"client", "POST round trip minus the server's handler (wire, encode, scheduling)", ack - server, true},
		{"api", "handler minus parse (admission, enqueue, 202)", server - parse, true},
		{"api", "`ParseMutation` (in-process probe)", parse, true},
		{"serve", "drain stage", v["serve.stage_drain_p50_us"], true},
		{"wal", "journal stage (group append + fsync)", v["wal.stage_journal_p50_us"], true},
		{"serve", "apply stage", v["serve.stage_apply_p50_us"], true},
		{"api", "watch fan-out", v["api.watch_fanout_p50_us"], true},
		{"serve", "publish stage (relabeling events only)", v["serve.stage_publish_p50_ms"] * 1e3, false},
		{"serve", "checkpoint capture (every 1024 batches)", v["serve.stage_checkpoint_capture_p50_ms"] * 1e3, false},
	})
	follower := budgetTable("Marker mutation to the follower's stream", "client.replica_visible_p50_ms", v["client.replica_visible_p50_ms"]*1e3, []budgetRow{
		{"(above)", "everything up to the leader's stream", v["client.visible_p50_ms"] * 1e3, true},
		{"replica", "hop: journal poll, stream, follower journal + apply + fan-out", v["replica.hop_p50_ms"] * 1e3, true},
	})
	return leader + "The stage rows are medians over all batches, three quarters of them add-only. The\n" +
		"remainder covers what a marker pays beyond them: a batch that appends a vertex\n" +
		"applies under a full shard barrier, waits for the coordinator's next drain if it\n" +
		"arrives mid-turn and for the fsync of the group before it, and then for the stream\n" +
		"write and the watcher's wake-up.\n\n" + follower
}

// writeBudget stores one workload's section and rebuilds BUDGET.md from
// the sections on disk, so tracing one workload refreshes only its part.
func writeBudget(workload, section string) error {
	if err := os.WriteFile(filepath.Join(outDir, "budget-"+workload+".md"), []byte(section), 0o644); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("# Latency budget\n\n" +
		"Generated by the traced runs (`go -C benchmark run . -workload serve-read -trace 1`, likewise\n" +
		"`serve-write`); do not edit. Each table splits one request's end-to-end median into\n" +
		"the layers it crosses. Rows are medians of different distributions, so they need\n" +
		"not add up: what they leave over is shown, not hidden.\n\n")
	for _, wl := range []string{"serve-read", "serve-write"} {
		s, err := os.ReadFile(filepath.Join(outDir, "budget-"+wl+".md"))
		if err != nil {
			continue // that workload has not been traced in this checkout yet
		}
		b.Write(s)
	}
	return os.WriteFile("BUDGET.md", []byte(b.String()), 0o644)
}
