// Command spinnerctl is the CLI companion to spinnerd, built on the
// typed /v1 client (internal/api/client). Usage:
//
//	spinnerctl [-addr URL] [-tenant T] <command> [args]
//
// Commands:
//
//	health              print the node's health status
//	lookup <v>          resolve one vertex's partition
//	labels              dump the full vertex→partition map ("v label" lines)
//	feed-labels         build the same map purely from the /v1/watch change
//	                    feed (resyncing via /v1/lookup when compacted), then
//	                    print it — the consumer-side convergence check
//	watch               tail the change feed, one line per delta
//	  -from N             resume after delta sequence N (default 0)
//	  -count N            exit after N deltas (default 0 = forever)
//	mutate              submit the line protocol from stdin ("+ u v [w]",
//	                    "- u v", "v n")
//	resize <k>          elastic-resize to k partitions
//	stats               print the full stats snapshot as JSON
//	  -watch              refresh continuously instead of printing once
//	  -interval D         refresh period with -watch (default 1s)
//	metrics             fetch /v1/metrics and pretty-print the spinner_*
//	                    families: counters and gauges with their values,
//	                    histograms with count/p50/p90/p99 per label set
//	  -raw                dump the raw Prometheus exposition instead
//	promote             fail a follower over to leader
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/api/client"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "spinnerd base URL")
	tenant := flag.String("tenant", "", "tenant name sent as X-Tenant on mutates")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cli := client.New(*addr)
	cli.Tenant = *tenant
	if err := dispatch(ctx, cli, flag.Args(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spinnerctl:", err)
		os.Exit(1)
	}
}

func dispatch(ctx context.Context, cli *client.Client, args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: spinnerctl [-addr URL] <health|lookup|labels|feed-labels|watch|mutate|resize|stats|metrics|promote>")
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "health":
		h, err := cli.Health(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, h.Status)
		return nil
	case "lookup":
		if len(rest) != 1 {
			return errors.New("usage: spinnerctl lookup <vertex>")
		}
		v, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad vertex %q", rest[0])
		}
		l, err := cli.Lookup(ctx, v)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d %d\n", l.Vertex, l.Partition)
		return nil
	case "labels":
		all, err := cli.LookupAll(ctx)
		if err != nil {
			return err
		}
		printLabels(out, all.Labels)
		return nil
	case "feed-labels":
		labels, err := feedLabels(ctx, cli)
		if err != nil {
			return err
		}
		printLabels(out, labels)
		return nil
	case "watch":
		fs := flag.NewFlagSet("watch", flag.ContinueOnError)
		from := fs.Uint64("from", 0, "resume after this delta sequence")
		count := fs.Int("count", 0, "exit after this many deltas (0 = forever)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		return watch(ctx, cli, *from, *count, out)
	case "mutate":
		ops, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		m, err := cli.Mutate(ctx, string(ops))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "queued: %d adds, %d removes, %d vertices\n", m.Adds, m.Removes, m.Vertices)
		return nil
	case "resize":
		if len(rest) != 1 {
			return errors.New("usage: spinnerctl resize <k>")
		}
		k, err := strconv.Atoi(rest[0])
		if err != nil {
			return fmt.Errorf("bad k %q", rest[0])
		}
		r, err := cli.Resize(ctx, k)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "queued: resize to k=%d\n", r.K)
		return nil
	case "stats":
		fs := flag.NewFlagSet("stats", flag.ContinueOnError)
		watch := fs.Bool("watch", false, "refresh continuously until interrupted")
		interval := fs.Duration("interval", time.Second, "refresh period with -watch")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		return stats(ctx, cli, *watch, *interval, out)
	case "metrics":
		fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
		raw := fs.Bool("raw", false, "dump the raw Prometheus exposition")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		return printMetrics(ctx, cli, *raw, out)
	case "promote":
		p, err := cli.Promote(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "promoted: epoch %d, sealed seq %d\n", p.Epoch, p.SealedSeq)
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// stats prints one stats snapshot, or with watch set keeps reprinting
// every interval until the context is cancelled (Ctrl-C exits cleanly).
func stats(ctx context.Context, cli *client.Client, watch bool, interval time.Duration, out io.Writer) error {
	if interval <= 0 {
		interval = time.Second
	}
	for {
		st, err := cli.Stats(ctx)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			return err
		}
		if !watch {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(interval):
		}
	}
}

// printMetrics renders the /v1/metrics exposition for humans: one line
// per counter/gauge sample, and per histogram label set the observation
// count with interpolated p50/p90/p99 from the cumulative buckets.
func printMetrics(ctx context.Context, cli *client.Client, raw bool, out io.Writer) error {
	text, err := cli.MetricsText(ctx)
	if err != nil {
		return err
	}
	if raw {
		_, err := io.WriteString(out, text)
		return err
	}
	fams, err := client.ParseProm(text)
	if err != nil {
		return err
	}
	for _, f := range fams {
		if !strings.HasPrefix(f.Name, "spinner_") {
			continue
		}
		fmt.Fprintf(out, "%s (%s)\n", f.Name, f.Type)
		if f.Type == "histogram" {
			for _, labels := range histLabelSets(f) {
				count := histCount(f, labels)
				p50, _ := client.HistQuantile(f, labels, 0.50)
				p90, _ := client.HistQuantile(f, labels, 0.90)
				p99, _ := client.HistQuantile(f, labels, 0.99)
				fmt.Fprintf(out, "  %scount=%.0f p50=%.6g p90=%.6g p99=%.6g\n",
					formatLabels(labels), count, p50, p90, p99)
			}
			continue
		}
		for _, s := range f.Samples {
			fmt.Fprintf(out, "  %s%g\n", formatLabels(s.Labels), s.Value)
		}
	}
	return nil
}

// histLabelSets extracts the distinct label sets (minus "le") of a
// histogram family's series, in first-seen order.
func histLabelSets(f *client.Family) []map[string]string {
	var sets []map[string]string
	seen := map[string]bool{}
	for _, s := range f.Samples {
		if s.Name != f.Name+"_count" {
			continue
		}
		key := formatLabels(s.Labels)
		if seen[key] {
			continue
		}
		seen[key] = true
		sets = append(sets, s.Labels)
	}
	return sets
}

func histCount(f *client.Family, labels map[string]string) float64 {
	for _, s := range f.Samples {
		if s.Name == f.Name+"_count" && formatLabels(s.Labels) == formatLabels(labels) {
			return s.Value
		}
	}
	return 0
}

// formatLabels renders a label set as a stable "k=v,... " prefix (empty
// for unlabeled series).
func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return "{" + strings.Join(parts, ",") + "} "
}

func printLabels(out io.Writer, labels []int32) {
	for v, l := range labels {
		fmt.Fprintf(out, "%d %d\n", v, l)
	}
}

// feedLabels reconstructs the label map purely from the change feed:
// watch from sequence 0, apply every delta, and stop at the first
// caught-up heartbeat (cursor == Next-1). A compacted cursor falls back
// to the full /v1/lookup resync and resumes watching from the returned
// cursor — the documented 410 recovery path.
func feedLabels(ctx context.Context, cli *client.Client) ([]int32, error) {
	var labels []int32
	cursor := uint64(0)
	for {
		w, err := cli.Watch(ctx, cursor)
		if errors.Is(err, client.ErrCompacted) {
			all, aerr := cli.LookupAll(ctx)
			if aerr != nil {
				return nil, aerr
			}
			labels = append(labels[:0], all.Labels...)
			cursor = all.FromSeq
			continue
		}
		if err != nil {
			return nil, err
		}
		caught := false
		for {
			ev, rerr := w.Recv()
			if rerr != nil {
				if errors.Is(rerr, io.EOF) || errors.Is(rerr, client.ErrCompacted) {
					// Stream ended — or the server said the cursor was
					// compacted mid-stream (typed end frame). Reconnect
					// from the cursor; a compacted one earns the 410
					// that routes through the resync branch above.
					break
				}
				w.Close()
				return nil, rerr
			}
			if ev.Delta != nil {
				labels, err = ev.Delta.Apply(labels)
				if err != nil {
					w.Close()
					return nil, err
				}
				cursor = ev.Delta.Seq
			} else if cursor+1 >= ev.Next {
				// Heartbeats carry the server's authoritative next
				// sequence: cursor == Next-1 means fully caught up.
				caught = true
				break
			}
		}
		w.Close()
		if caught {
			return labels, nil
		}
	}
}

func watch(ctx context.Context, cli *client.Client, from uint64, count int, out io.Writer) error {
	w, err := cli.Watch(ctx, from)
	if err != nil {
		return err
	}
	defer w.Close()
	fmt.Fprintf(out, "# floor=%d next=%d\n", w.Floor(), w.Next())
	seen := 0
	for count == 0 || seen < count {
		ev, err := w.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, context.Canceled) {
				return nil
			}
			return err
		}
		if ev.Delta == nil {
			continue
		}
		d := ev.Delta
		fmt.Fprintf(out, "seq=%d epoch=%d gen=%d k=%d n=%d runs=%d changed=%d cross=%d total=%d\n",
			d.Seq, d.Epoch, d.Gen, d.K, d.N, len(d.Runs), d.RunVertices(), d.Cross, d.Total)
		seen++
	}
	return nil
}
