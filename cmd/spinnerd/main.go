// Command spinnerd runs the live partition-maintenance service: it
// partitions an edge-list graph once at startup, then serves
// vertex→partition lookups over HTTP while ingesting graph mutations and
// elastic partition-count changes, maintaining the partitioning
// incrementally in the background (internal/serve).
//
// Usage:
//
//	spinnerd -k 32 -in graph.txt -addr :8080
//	spinnerd -k 8 -synthetic 20000 -addr 127.0.0.1:8080
//	spinnerd -k 32 -in graph.txt -data-dir /var/spinner -fsync interval
//
// The store has one writer: a coordinator goroutine applies every
// mutation batch in log order with incremental cut tracking and publishes
// one immutable snapshot that lookups read lock-free; /v1/stats reports
// its integer cut counters (cut_weight, total_weight, cut_by_partition).
//
// # Durability
//
// With -data-dir the daemon is durable: every accepted mutation/resize
// batch is appended to a CRC-framed write-ahead journal before it is
// applied, and the composed store state is checkpointed periodically
// (plus once at graceful shutdown — SIGINT/SIGTERM drains the listener
// and writes a final checkpoint). If
// the data dir already holds state, the input graph flags are ignored and
// the daemon recovers instead: latest valid checkpoint + journal tail
// replay, with torn tails truncated and mid-log corruption refused. The
// -fsync policy trades throughput for durability against OS/power death:
// never (page cache; survives process crashes), interval (bounded loss
// window, period set by -fsync-interval), always (every acknowledged
// batch survives power loss). -keep-checkpoints sets the checkpoint
// retention: the journal is only truncated below the oldest retained
// checkpoint, so recovery survives the loss (or crash-interrupted write)
// of the newest one by falling back and replaying a longer tail.
//
// A periodic checkpoint is due when both hold: at least -checkpoint-every
// batches were applied since the newest checkpoint, and the journal
// appended since it holds at least that checkpoint's bytes. So a large
// graph is not re-encoded for a small journal, and recovery reads at most
// about twice a checkpoint's bytes; the journal tail a recovery replayed
// counts toward the next checkpoint.
//
// The durable write path is a staged commit pipeline (see internal/serve
// and internal/wal): each coordinator turn journals everything pending
// as one group (one write + one fsync — under -fsync always, concurrent
// submitters amortize the disk barrier), applies every batch through one
// path with consecutive add-only batches sharing one publication (one
// snapshot, one change-feed delta), and runs checkpoints in the background
// (the write plane only pauses to clone the graph, never for the encode +
// write + fsync). /v1/stats reports the pipeline's shape:
// GroupCommits/GroupedEntries (and the derived journal_group_depth —
// mean entries per fsync), ApplyCoalesces/CoalescedBatches, and
// CheckpointsPending (1 while a background checkpoint is in flight).
//
// # Overload robustness
//
// The write plane is multi-tenant: /v1/mutate batches are attributed to
// the tenant named by the X-Tenant request header (empty = the default
// tenant). With -quota-rate R each tenant gets a token bucket (R
// batches/sec, burst -quota-burst) and -quota-depth caps each tenant's
// queued backlog, so one abusive client exhausts its own quota instead
// of the shared mutation log; the coordinator drains the per-tenant
// backlogs deficit-round-robin, weighted by -quota-weights
// ("teamA=4,teamB=1" CSV, unlisted tenants weigh 1), which keeps
// well-behaved tenants' commit latency bounded while a flooder is
// saturating its share. Refusals are honest: quota and backpressure
// rejections return 429 with a machine-readable "code" and a
// Retry-After header computed from the observed drain rate.
//
// With -degrade-lookups or -degrade-staleness set, the daemon watches
// read-path load over an EWMA (-degrade-window) and, while overloaded,
// spends its degradation budget deliberately: background
// restabilization is deferred, and /v1/resize — the most expensive write — is shed with 503 + Retry-After.
// Lookups and mutations keep flowing.
//
// Storage faults fail stop: if a journal write or fsync fails, the
// affected group is never acknowledged, the journal is poisoned, and
// the store degrades to read-only — /v1/mutate and /v1/resize return 503
// {"code":"degraded"}, /v1/healthz reports {"status":"degraded"}, and
// lookups keep serving the last applied state. Restart to recover: the
// journal tail holds exactly the acknowledged suffix.
//
// # Replication
//
// A durable daemon is also a replication leader: followers bootstrap
// from GET /v1/replicate/checkpoint (the latest checkpoint payload, with
// X-Replica-Epoch, X-Checkpoint-Seq and X-Replica-Seed headers) and then
// tail
// GET /v1/replicate?after_seq=N&epoch=E — a chunked stream of the
// journal's own CRC-framed records wrapped in epoch-stamped stream
// frames (internal/replica). While a follower is connected the leader
// pins journal retention at the lowest sequence any follower still
// needs, so checkpoint truncation never races the stream; 409 means the
// epoch is stale (fenced), 410 means the journal no longer holds
// after_seq+1 and the follower must re-bootstrap.
//
// The stream is pushed, not polled. The coordinator wakes every parked
// stream when a commit group advances the journal sequence — after the
// group's write and, under -fsync always, its fsync have returned — and
// each stream keeps a cursor (the open segment plus a byte offset) from
// which it reads only the bytes appended since its last frame, never past
// that acknowledged sequence, so it cannot see a half-written record.
// Wake-ups coalesce: under a flood one frame carries several groups; idle,
// a heartbeat frame goes out every 500ms. Follower visibility is leader
// visibility plus that one hop of work.
//
// With -follow <leader-addr> (requires -data-dir) the daemon runs as a
// warm-standby follower: it installs the leader's checkpoint into its
// own data dir on first contact, with the leader's seed, which it
// adopts (later starts resume from its own state, and an explicit -seed
// that differs is refused), replays the streamed tail through the same record-apply entry
// recovery uses (serve.Store.ApplyRecord), adopting the leader's journaled
// relabels instead of restabilizing itself — so follower state is
// bit-identical to the leader's at the same applied_seq — and serves /v1/lookup from its own
// atomically-swapped snapshots. External writes refuse with 503
// {"code":"read_only"}. /v1/stats exposes the watermark: "applied_seq",
// "leader_seq" and "staleness_ms" (time since the follower last
// observed itself caught up); with -max-staleness D, /v1/lookup answers
// 503 {"code":"stale_replica"} + Retry-After once staleness exceeds D.
//
// POST /v1/promote fails the follower over: it fences the deposed leader
// (epoch+1 on every future frame check, persisted before writes open),
// seals the applied journal position, flips the store read-write, and
// starts serving /v1/replicate itself so further replicas can chain from
// the new leader. No acknowledged batch is lost: the follower's journal
// holds exactly the leader records it applied.
//
// # Change feed
//
// Every label-changing event in the store also publishes a compact
// delta record (changed vertex→label runs, partition-count changes,
// integer cut counters) into a bounded ring
// (-delta-ring records; the oldest are compacted away). GET /v1/watch
// streams those records so an external consumer — a cache, an index, a
// router — can mirror the vertex→partition map without polling:
// subscribe from sequence 0, apply each delta, and the map converges to
// exactly what /v1/lookup serves. Delta sequences are per-process
// (restart ⇒ resync), and a consumer that falls behind the ring gets an
// honest 410 and re-bootstraps from the full map.
//
// # Watch at scale
//
// The watch fan-out is encode-once: each publication's delta payload
// and its complete CRC-framed wire frame are memoized in the ring entry
// at publish time, and every connected stream writes the same immutable
// bytes — one encode and one CRC per publication whether one stream or
// ten thousand are attached (BenchmarkWatchFanout; BENCH_pr10.json holds
// the recorded curve). The whole-map GET /v1/lookup body, the resync
// after a 410, is likewise encoded once per publication: the first read
// at a new snapshot version encodes it, and every later read at that
// version and from_seq writes the same bytes. Idle streams park on
// per-subscriber coalesced wakeups (a single-slot channel each) rather
// than a shared broadcast channel, so a publication wakes each stream
// at most once — a stream that fell several publications behind wakes
// once and drains a batch — and a slow consumer never blocks the
// publisher. Ring reads are lock-free snapshot loads, so catch-up reads
// never contend with publishes. A cursor that compaction overruns
// mid-stream (the ring is bounded; a consumer stalled longer than
// -delta-ring publications loses its place) is told so explicitly: the
// server sends a typed end frame carrying the refreshed floor/next
// bounds before closing the stream, the client surfaces it as the same
// "compacted" condition as the 410, and the consumer resyncs via
// GET /v1/lookup. spinnerctl feed-labels runs this loop: when a stream
// ends it re-dials from the last applied sequence, and on a 410 or an end
// frame it resyncs from the full lookup and watches on from its cursor.
//
// # HTTP API (v1)
//
// Every endpoint lives under /v1/; there are no unversioned routes (a
// path without the prefix answers 404). Success responses are JSON; error responses are JSON too, shaped {"error": msg} with the
// status carrying the class (400 malformed, 404 unknown vertex, 409
// conflict, 410 gone, 413 body too large, 429 quota/backpressure, 503
// overload/fault/shutdown). Machine-actionable rejections add a stable
// "code" field (body_too_large, quota_exceeded, log_full, overloaded,
// degraded, read_only, stale_replica, k_unchanged, unavailable,
// not_durable, follower, not_follower, compacted, reset) and, where a backoff hint exists, a
// Retry-After header (whole seconds). Every response — success and
// error alike — carries Content-Type: application/json, except the
// binary /v1/watch and /v1/replicate streams.
//
//	GET  /v1/healthz       → 200 {"status":"ok"}
//	                         503 {"status":"degraded","error":...} after a storage fault
//	GET  /v1/lookup?v=ID   → 200 {"vertex":ID,"partition":P,"version":V,"k":K}
//	                         400 {"error":"bad vertex id"} | 404 {"error":"vertex not found"}
//	                         503 {"error":...,"code":"stale_replica"} + Retry-After on a
//	                         follower lagging past -max-staleness
//	GET  /v1/lookup        → 200 {"k":K,"vertices":N,"labels":[...],"from_seq":S}
//	                         (no v parameter: the full map + the watch cursor to resume
//	                         the change feed from — the resync path after a 410)
//	                         Both 200s carry Content-Length (the whole map used to be
//	                         chunked); the bodies are byte for byte what encoding/json
//	                         writes. A point lookup takes partition, version and k
//	                         from one snapshot, so the partition is below that k;
//	                         answering for one vertex never reads the label map,
//	                         and neither does /v1/stats. The whole map is encoded
//	                         from the published labels, never copied, and once per
//	                         publication: later reads at that snapshot version and
//	                         from_seq write the same bytes.
//	POST /v1/mutate        → 202 {"queued":true,"adds":A,"removes":R,"vertices":N}
//	                         400 {"error":"line L: ..."}
//	                         413 {"error":...,"code":"body_too_large"}: a body over
//	                         api.MaxMutateBody (8 MiB); a line is capped at 4 MiB
//	                         429 {"error":...,"code":"quota_exceeded"|"log_full"} + Retry-After
//	                         503 {"error":...,"code":"degraded"|"read_only"|"unavailable"}
//	                         headers: X-Tenant names the submitting tenant
//	                         body: one op per line:
//	                           + u v [w]   add undirected edge {u,v} (weight w, default 2)
//	                           - u v       remove undirected edge {u,v}
//	                           v n         append n vertices
//	POST /v1/resize?k=K    → 202 {"queued":true,"k":K}
//	                         400 {"error":"bad k"} | 400 {"error":"k unchanged","code":"k_unchanged"}
//	                         503 {"error":...,"code":"overloaded"|"degraded"|"read_only"|"unavailable"}
//	GET  /v1/stats         → 200 snapshot + serving counters (one documented JSON
//	                         struct — see api.StatsResponse): vertices, k, version,
//	                         epoch, applied, cut, cut_weight, total_weight,
//	                         cut_by_partition, durable, journal_group_depth,
//	                         counters, degraded, overloaded, drain_rate, lookup_rate,
//	                         tenants, delta_floor, delta_next, role, applied_seq,
//	                         leader_seq (+ follower-only staleness_ms,
//	                         replication_error, replica_epoch; last_error after a fault)
//	GET  /v1/watch?from_seq=N[&limit=M]
//	                       → 200 chunked application/octet-stream of CRC frames
//	                         (u8 kind | u32 len | u32 crc | payload — the
//	                         internal/frame envelope): a handshake
//	                         frame (floor+next), then one frame per delta record
//	                         from sequence N+1 on, with heartbeat frames while
//	                         idle. from_seq names the last delta the consumer has
//	                         applied (0 = from the beginning; the first delta is
//	                         the baseline full-label record). Long-polls forever
//	                         unless limit > 0 caps the deltas delivered.
//	                         Headers X-Delta-Floor/X-Delta-Next report retention.
//	                         If compaction overruns the cursor mid-stream, a
//	                         final end frame (refreshed floor+next) precedes the
//	                         close — resync exactly as for the 410 below.
//	                         410 {"code":"compacted"} the cursor fell below the
//	                         compaction floor | 410 {"code":"reset"} the cursor is
//	                         from a previous server incarnation — both mean: full
//	                         resync via GET /v1/lookup, re-watch from its from_seq
//	GET  /v1/replicate?after_seq=N[&epoch=E]
//	                       → 200 chunked stream: handshake frame, then records/
//	                         heartbeat frames (raw journal frames inside, all
//	                         epoch-stamped and CRC-framed)
//	                         409 {"error":...} epoch mismatch (fenced) |
//	                         410 {"error":...} journal truncated below after_seq+1
//	                         (re-bootstrap) | 503 on a non-durable or still-
//	                         following node
//	GET  /v1/replicate/checkpoint
//	                       → 200 latest checkpoint payload (binary), headers
//	                         X-Replica-Epoch, X-Checkpoint-Seq | 503 when none
//	POST /v1/promote       → 200 {"promoted":true,"epoch":E,"sealed_seq":S}
//	                         (idempotent) | 409 {"code":"not_follower"} on a node
//	                         not running with -follow
//	GET  /v1/metrics       → 200 Prometheus text exposition (version 0.0.4,
//	                         Content-Type text/plain) of every metric below.
//
// The typed Go client for this surface is internal/api/client; the
// spinnerctl command wraps it for shell use (spinnerctl metrics
// pretty-prints the exposition; spinnerctl stats -watch polls /v1/stats).
//
// # Metrics reference
//
// GET /v1/metrics renders one registry (internal/metrics.Registry), in
// which every metric of the process is declared once. The order of the
// families in the exposition, like the order of the keys of the
// /v1/stats "counters" object, is not part of the contract; names, TYPE
// and HELP are. First its histograms and computed gauges; observations
// are nanoseconds internally, exposed in seconds with power-of-two
// bucket boundaries:
//
//	spinner_http_request_duration_seconds  histogram {route,status}
//	    request latency per route (healthz, lookup, mutate, resize,
//	    stats, replicate, replicate_checkpoint, promote, watch, metrics)
//	    and status class (2xx, 4xx, ...). Streaming routes (watch,
//	    replicate) record time-to-first-byte — the handshake — since
//	    their total duration is the subscription lifetime.
//	spinner_lookup_duration_seconds        histogram
//	    sampled store-lookup latency (one in -lookup-sample-every).
//	spinner_stage_duration_seconds         histogram {stage}
//	    per-turn commit-pipeline stage timing: drain (log drain + group
//	    formation), journal (wal group append incl. fsync wait), apply
//	    (application of the group), publish (counter move and
//	    publication after relabeling), checkpoint_capture (the state
//	    capture and graph clone), checkpoint_write (background encode
//	    + install).
//	spinner_replica_lag_records            gauge (follower only)
//	    leader seq − applied seq at scrape time.
//	spinner_replica_staleness_seconds      gauge (follower only)
//	    wall-clock time since last caught-up observation — the same
//	    quantity /v1/stats reports as staleness_ms.
//	spinner_replica_apply_lag_records      histogram (follower only)
//	    apply lag observed at each applied record (raw record counts).
//	spinner_watch_fanout_duration_seconds  histogram
//	    change-feed delivery latency: delta publication to the batch
//	    containing it being flushed to a watch stream.
//	spinner_watch_subscribers              gauge
//	    watch streams currently registered on (or still draining) the
//	    delta hub's broadcast plane.
//
// Then every counter /v1/stats carries under "counters" (keyed there by
// Go field name), one series per metrics.ServeCounters field, CamelCase
// mapped to snake_case with the Prometheus _total suffix on monotonic
// counters — e.g. Lookups →
// spinner_lookups_total, GroupCommits → spinner_group_commits_total,
// ReplicaRecordsApplied → spinner_replica_records_applied_total. The two
// non-monotonic fields are gauges: spinner_checkpoints_pending (1 while
// a background checkpoint is in flight) and spinner_watch_streams
// (currently open /v1/watch streams; the companion counter
// spinner_watch_streams_total counts every accepted stream). The
// encode-once fan-out invariant is auditable from two of them:
// spinner_delta_encodes_total tracks spinner_deltas_published_total
// exactly, independent of how many streams are attached, and
// spinner_watch_bytes_sent_total totals the frame bytes written across
// all watch streams. The full name table is the `metric` and `help`
// struct tags on the metrics.ServeCounters fields — a field's one
// declaration; a name ending in _total is a counter, any other a gauge —
// and /v1/stats.latency carries headline p50/p90/p99/max per histogram for
// humans who want quantiles without a scraper.
//
// With -pprof-addr the daemon additionally serves net/http/pprof
// (/debug/pprof/...) on a separate side listener, keeping profiling off
// the serving address entirely.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/wal"
)

// refuseOtherSeed refuses a -seed that differs from the seed dc's data
// dir records: a recovering store and a follower (which records its
// leader's) run with the recorded seed, so a differing one is refused,
// not ignored.
func refuseOtherSeed(dc daemonConfig) error {
	seed, ok, err := serve.RecordedSeed(dc.dataDir)
	if err == nil && ok && dc.seedSet && seed != dc.seed {
		err = fmt.Errorf("-seed %d differs from the seed %d that %s records; omit -seed", dc.seed, seed, dc.dataDir)
	}
	return err
}

// daemonConfig carries the parsed flags into run.
type daemonConfig struct {
	k          int
	c          float64
	seed       uint64
	seedSet    bool // -seed was given; recovery and -follow refuse one that differs from the dir's
	workers    int
	maxIter    int
	undirected bool
	inPath     string
	synthetic  int
	addr       string
	logDepth   int
	degrade    float64
	deltaRing  int

	dataDir         string
	fsync           string
	fsyncInterval   time.Duration
	checkpointEvery int
	keepCheckpoints int

	quotaRate        float64
	quotaBurst       float64
	quotaDepth       int
	quotaWeights     string
	degradeLookups   float64
	degradeStaleness float64
	degradeWindow    time.Duration

	follow       string
	maxStaleness time.Duration

	pprofAddr         string
	lookupSampleEvery int
}

func main() {
	var dc daemonConfig
	flag.IntVar(&dc.k, "k", 32, "number of partitions")
	flag.Float64Var(&dc.c, "c", 1.05, "additional capacity (c > 1)")
	flag.Uint64Var(&dc.seed, "seed", 1, "random seed")
	flag.IntVar(&dc.workers, "workers", 0, "Pregel workers, each its own §IV-A4 load view, so the labels depend on it (0 = 8 on every host)")
	flag.IntVar(&dc.maxIter, "max-iterations", 200, "iteration cap per maintenance run")
	flag.BoolVar(&dc.undirected, "undirected", false, "treat input edges as undirected")
	flag.StringVar(&dc.inPath, "in", "", "input edge list (default stdin; ignored with -synthetic or when -data-dir holds state)")
	flag.IntVar(&dc.synthetic, "synthetic", 0, "generate a Watts-Strogatz graph with this many vertices instead of reading input")
	flag.StringVar(&dc.addr, "addr", ":8080", "HTTP listen address")
	flag.IntVar(&dc.logDepth, "log-depth", 64, "bounded mutation log depth")
	flag.Float64Var(&dc.degrade, "degrade", 1.10, "cut-ratio degradation factor triggering restabilization")
	flag.IntVar(&dc.deltaRing, "delta-ring", 1024, "change-feed delta records retained for /v1/watch before compaction")
	flag.StringVar(&dc.dataDir, "data-dir", "", "durable data directory (journal + checkpoints); empty = in-memory only")
	flag.StringVar(&dc.fsync, "fsync", "interval", "journal fsync policy: never|interval|always")
	flag.DurationVar(&dc.fsyncInterval, "fsync-interval", 50*time.Millisecond, "background fsync period under -fsync interval")
	flag.IntVar(&dc.checkpointEvery, "checkpoint-every", 4096, "least applied batches between periodic checkpoints, each also due only once the journal since the newest checkpoint holds its bytes (negative disables periodic checkpoints)")
	flag.IntVar(&dc.keepCheckpoints, "keep-checkpoints", 2, "newest checkpoints retained; the journal is truncated below the oldest kept")
	flag.Float64Var(&dc.quotaRate, "quota-rate", 0, "per-tenant mutation admission rate (batches/sec; 0 disables quotas)")
	flag.Float64Var(&dc.quotaBurst, "quota-burst", 0, "per-tenant admission burst (0 = max(1, quota-rate))")
	flag.IntVar(&dc.quotaDepth, "quota-depth", 0, "per-tenant backlog cap for non-blocking submits (0 = unlimited)")
	flag.StringVar(&dc.quotaWeights, "quota-weights", "", "fair-drain weights as tenant=weight CSV (unlisted tenants weigh 1)")
	flag.Float64Var(&dc.degradeLookups, "degrade-lookups", 0, "lookups/sec above which maintenance defers and /resize sheds (0 disables)")
	flag.Float64Var(&dc.degradeStaleness, "degrade-staleness", 0, "mean lookup staleness (batches) above which overload engages (0 disables)")
	flag.DurationVar(&dc.degradeWindow, "degrade-window", 100*time.Millisecond, "EWMA window for the overload detector")
	flag.StringVar(&dc.follow, "follow", "", "run as a read replica of this leader address (requires -data-dir)")
	flag.DurationVar(&dc.maxStaleness, "max-staleness", 0, "follower lookups answer 503 stale_replica past this lag (0 = serve regardless)")
	flag.StringVar(&dc.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this side address (empty disables)")
	flag.IntVar(&dc.lookupSampleEvery, "lookup-sample-every", 0, "time one in N lookups into the latency histogram (0 = default 256, negative disables)")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { dc.seedSet = dc.seedSet || f.Name == "seed" })
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, dc, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spinnerd:", err)
		os.Exit(1)
	}
}

// run bootstraps or recovers the store, serves it on dc.addr until ctx is
// cancelled, then drains the listener and closes the store.
func run(ctx context.Context, dc daemonConfig, out io.Writer) error {
	opts := core.Options{K: dc.k, C: dc.c, Seed: dc.seed, NumWorkers: dc.workers, MaxIterations: dc.maxIter}
	weights, err := parseWeights(dc.quotaWeights)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Options: opts, LogDepth: dc.logDepth, DegradeFactor: dc.degrade,
		DeltaRing: dc.deltaRing, LookupSampleEvery: dc.lookupSampleEvery,
		Quota:    serve.QuotaConfig{Rate: dc.quotaRate, Burst: dc.quotaBurst, TenantDepth: dc.quotaDepth, Weights: weights},
		Overload: serve.OverloadConfig{LookupRate: dc.degradeLookups, Staleness: dc.degradeStaleness, Window: dc.degradeWindow},
	}
	newDurability := func(pol wal.Policy) serve.DurabilityConfig {
		return serve.DurabilityConfig{
			Fsync:           pol,
			FsyncInterval:   dc.fsyncInterval,
			CheckpointEvery: dc.checkpointEvery,
			KeepCheckpoints: dc.keepCheckpoints,
		}
	}

	loadGraph := func() (*graph.Graph, error) {
		if dc.synthetic > 0 {
			return gen.WattsStrogatz(dc.synthetic, 10, 0.2, dc.seed), nil
		}
		var in io.Reader = os.Stdin
		if dc.inPath != "" {
			f, err := os.Open(dc.inPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			in = f
		}
		return graph.ReadEdgeList(in, !dc.undirected)
	}

	var st *serve.Store
	var rep *api.Replica
	switch {
	case dc.follow != "":
		if dc.dataDir == "" {
			return errors.New("-follow requires -data-dir (the follower journals and checkpoints locally)")
		}
		pol, err := wal.ParsePolicy(dc.fsync)
		if err != nil {
			return err
		}
		cfg.Durability = newDurability(pol)
		fmt.Fprintf(out, "spinnerd: following %s from %s (fsync=%s)...\n", dc.follow, dc.dataDir, pol)
		fl, err := replica.StartFollower(replica.FollowerConfig{
			Leader: dc.follow, Dir: dc.dataDir, Store: cfg,
		})
		if err != nil {
			return err
		}
		defer fl.Close()
		if err := refuseOtherSeed(dc); err != nil {
			return err
		}
		st = fl.Store()
		rep = &api.Replica{
			Fl:           fl,
			Srv:          replica.NewServer(st, dc.dataDir, fl.Epoch),
			MaxStaleness: dc.maxStaleness,
		}
		fmt.Fprintf(out, "spinnerd: follower at epoch %d, applied seq %d\n", fl.Epoch(), fl.AppliedSeq())
	case dc.dataDir != "":
		pol, err := wal.ParsePolicy(dc.fsync)
		if err != nil {
			return err
		}
		cfg.Durability = newDurability(pol)
		if serve.HasState(dc.dataDir) {
			if err := refuseOtherSeed(dc); err != nil {
				return err
			}
			fmt.Fprintf(out, "spinnerd: recovering from %s (fsync=%s)...\n", dc.dataDir, pol)
			st, err = serve.Open(dc.dataDir, cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "spinnerd: recovered %d vertices (replayed %d journal records)\n",
				st.Summary().Vertices, st.Counters().ReplayedRecords.Load())
		} else {
			g, err := loadGraph()
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "spinnerd: partitioning %d vertices into %d partitions (durable in %s, fsync=%s)...\n",
				g.NumVertices(), dc.k, dc.dataDir, pol)
			st, err = serve.BootstrapDurable(dc.dataDir, g, cfg)
			if err != nil {
				return err
			}
		}
	default:
		g, err := loadGraph()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "spinnerd: partitioning %d vertices into %d partitions...\n",
			g.NumVertices(), dc.k)
		st, err = serve.Bootstrap(g, cfg)
		if err != nil {
			return err
		}
	}
	defer st.Close()
	if rep == nil && dc.dataDir != "" {
		// A durable non-follower node is a replication leader: pin its
		// epoch (1 on first boot; a promoted-then-restarted node keeps its
		// sealed epoch) and serve the journal stream.
		ep, err := replica.LoadOrInitEpoch(dc.dataDir)
		if err != nil {
			return err
		}
		rep = &api.Replica{Srv: replica.NewServer(st, dc.dataDir, func() uint64 { return ep.Epoch })}
	}
	fmt.Fprintf(out, "spinnerd: serving (cut ratio %.4f)\n", st.Summary().CutRatio)

	if dc.pprofAddr != "" {
		// Profiling lives on its own listener with an explicit mux, so
		// the serving address never exposes /debug/pprof and the side
		// listener exposes nothing else.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(out, "spinnerd: pprof on %s\n", dc.pprofAddr)
		go func() {
			if err := http.ListenAndServe(dc.pprofAddr, pm); err != nil {
				fmt.Fprintln(os.Stderr, "spinnerd: pprof listener:", err)
			}
		}()
	}
	fmt.Fprintf(out, "spinnerd: listening on %s\n", dc.addr)
	// Requests inherit ctx, so the /v1/watch and /v1/replicate streams
	// end with it: Shutdown waits for open requests and cancels none.
	srv := &http.Server{
		Addr:        dc.addr,
		Handler:     api.NewServer(st, rep).Mux(),
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		// Graceful shutdown: drain the listener, then Close the store —
		// on a durable store that writes the final checkpoint, so the
		// next start recovers without replaying.
		fmt.Fprintln(out, "spinnerd: stopping; draining and checkpointing...")
		sdCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sdCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return st.Close()
	}
}

// parseWeights parses the -quota-weights "tenant=weight,..." CSV.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		w, err := strconv.Atoi(val)
		if !ok || name == "" || err != nil || w < 1 {
			return nil, fmt.Errorf("bad -quota-weights entry %q, want tenant=weight with weight >= 1", pair)
		}
		weights[name] = w
	}
	return weights, nil
}
