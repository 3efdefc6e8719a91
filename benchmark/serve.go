package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/api/client"
	"repro/internal/serve"
)

// The serving workloads drive real spinnerd processes. They use the /v1
// API through internal/api/client, the eight daemon flags below and the
// documented spinner_* series — nothing of internal/serve's constructors
// (the in-process probes of probe.go aside), so the serving core can be
// reworked underneath without editing the benchmark.
const (
	serveK      = 32
	serveN      = 50_000 // -synthetic: vertices at boot
	serveBoots  = 3      // independent cluster boots per run, each measured for a third of -seconds
	trickleRate = 20.0   // mutation batches per second beside the lookups
	openRate    = 400.0  // serve-write open-loop batches per second
	// floodBackoff is how long a connection pauses after a 429. The
	// server's Retry-After is whole seconds — as long as phase B — and
	// honouring it would measure the pause, not the write plane's ceiling.
	floodBackoff = 5 * time.Millisecond
)

func baseArgs(seed uint64) []string {
	return []string{"-k", strconv.Itoa(serveK), "-seed", strconv.FormatUint(seed, 10)}
}

// Shares of a boot's measuring time: serve-read looks up beside writes
// (A), saturates (B) and reads the whole map (C); serve-write runs the open
// loop (A) and floods (B).
var (
	readShares  = []float64{0.60, 0.25, 0.15}
	writeShares = []float64{0.60, 0.40}
)

// phases splits the measuring time by shares.
func phases(seconds float64, shares []float64) []time.Duration {
	out := make([]time.Duration, len(shares))
	for i, share := range shares {
		out[i] = time.Duration(seconds * share * float64(time.Second))
	}
	return out
}

// The gated latencies and rates are taken from the quietest tenth of the
// run: each phase is cut into windows, every window yields its median
// latency (or its rate), the windows of all boots are pooled, and the
// metric is their lowest (highest) decile. A shared host slows everything
// down by 20–30 % for seconds to a minute at a time; a median over the
// whole run follows those spells, the quiet decile only moves when the
// program does. The whole-run medians are the client.* layer metrics.
const (
	lookupWindow = 250 * time.Millisecond // ≈ 1 000 lookups
	markerWindow = 500 * time.Millisecond // 50 markers
	floodWindow  = 500 * time.Millisecond // at least one checkpoint cycle each
)

func quietLatency(windowMedians []float64) float64 { return quantile(windowMedians, 10) }
func quietRate(windowRates []float64) float64      { return quantile(windowRates, 90) }

var bg = context.Background()

// quiesce polls /v1/stats until applied, version and the change feed have
// all stood still for 300 ms (no batch in the log, no restabilization
// still publishing) and returns the last snapshot.
func quiesce(d *daemon) (*api.StatsResponse, error) {
	deadline := time.Now().Add(60 * time.Second)
	var last *api.StatsResponse
	still := 0
	for time.Now().Before(deadline) {
		st, err := d.cli.Stats(bg)
		if err != nil {
			return nil, fmt.Errorf("quiesce %s: %w", d.name, err)
		}
		if last != nil && st.Applied == last.Applied && st.Version == last.Version &&
			st.DeltaNext == last.DeltaNext && st.AppliedSeq == last.AppliedSeq {
			still++
		} else {
			still = 0
		}
		if still >= 6 {
			return st, nil
		}
		last = st
		time.Sleep(50 * time.Millisecond)
	}
	return nil, fmt.Errorf("%s did not quiesce in 60 s", d.name)
}

// settledLabels waits for d to quiesce and fetches its full label map,
// again and again (up to 10 s) until the other view of the same labels —
// disagreements(labels) counts where it differs — agrees with it. A
// restabilization can still land between any two reads of a node that
// looked quiescent, so two views of it agree only once it has; they must
// then agree exactly. It returns the last map and disagreement count.
func settledLabels(d *daemon, disagreements func(labels []int32) int) (*api.ResyncResponse, int, error) {
	if _, err := quiesce(d); err != nil {
		return nil, 0, err
	}
	for attempt := 0; ; attempt++ {
		view, err := d.cli.LookupAll(bg)
		if err != nil {
			return nil, 0, err
		}
		n := disagreements(view.Labels)
		if n == 0 || attempt == 100 {
			return view, n, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// differsFrom counts where the labels rebuilt from the feed differ.
func (f *feed) differsFrom(labels []int32) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return differing(f.labels, labels)
}

// differing counts the positions at which two label maps disagree.
func differing(a, b []int32) int {
	n := max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// sameState checks that a node (a follower, or the leader after recovery)
// holds the same graph as the reference — vertex count, k and total edge
// weight, so no acknowledged batch is missing — with every label in [0,k).
func sameState(rep *report, what string, got *api.ResyncResponse, gotStats *api.StatsResponse, want *api.ResyncResponse, wantStats *api.StatsResponse) {
	rep.check(got.Vertices == want.Vertices && got.K == want.K && len(got.Labels) == len(want.Labels),
		"%s has %d vertices, k=%d; want %d, k=%d", what, got.Vertices, got.K, want.Vertices, want.K)
	rep.check(gotStats.TotalWeight == wantStats.TotalWeight, "%s holds edge weight %d, want %d", what, gotStats.TotalWeight, wantStats.TotalWeight)
	inRange := true
	for _, l := range got.Labels {
		inRange = inRange && l >= 0 && int(l) < got.K
	}
	rep.check(inRange, "%s serves a label outside [0,%d)", what, got.K)
}

// isRefusal reports whether err is a 429: backpressure from the bounded
// mutation log, to be retried, not a failure.
func isRefusal(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests
}

// lookupOK reports whether a lookup answered 200 with a label in [0,k).
func lookupOK(r *api.LookupResponse, err error) bool {
	return err == nil && r.Partition >= 0 && int(r.Partition) < serveK
}

// closedLoop issues lookups for ids, one after the other, for the given
// time, and returns each one's latency in seconds, stamped with when it
// completed, and how many failed.
func closedLoop(cli *client.Client, rep *report, tr *tracer, ids []int64, start time.Time, length time.Duration) (lat []timed, bad int) {
	for i := 0; time.Since(start) < length; i++ {
		var r *api.LookupResponse
		var err error
		d := tr.timed("client.lookup", -1, int64(i), func() { r, err = cli.Lookup(bg, ids[i%len(ids)]) })
		if !lookupOK(r, err) {
			bad++
			rep.note("lookup %d: %v %+v", ids[i%len(ids)], err, r)
		}
		lat = append(lat, timed{time.Since(start), d.Seconds()})
	}
	return lat, bad
}

// overBoots measures on serveBoots clusters booted one after the other,
// each for an equal share of the measuring time. The windows of all boots
// are pooled; every other number is the median over the boots, so one boot
// with a slow fsync or an unlucky core placement does not set it. setup_s
// comes out as the median boot time for free.
func overBoots(cfg runConfig, env *environment, rep *report, measure func(cfg runConfig, env *environment, rep *report) error) error {
	if _, err := env.build(); err != nil {
		return err
	}
	cfg.seconds /= serveBoots
	var boots []*report
	for i := 0; i < serveBoots; i++ {
		b := newReport(rep.workload)
		err := measure(cfg, env, b)
		env.close()
		if err != nil {
			return err
		}
		boots = append(boots, b)
	}
	rep.mergeMedians(boots)
	rep.set("proc.build_s", env.buildS)
	return nil
}

// runServeRead: phase A, one connection looks vertices up in a closed
// loop (a caller of a partition lookup waits for the answer) with Zipf
// ids while a second connection trickles mutation batches, so snapshots
// keep swapping beside the reads; phase B, nproc connections saturate the
// node with uniform ids and no writes.
func runServeRead(cfg runConfig, env *environment, rep *report) error {
	if err := overBoots(cfg, env, rep, measureRead); err != nil {
		return err
	}
	rep.set("op_p50_ms", quietLatency(rep.pools["lookup_s"])*1e3)
	rep.set("op_slow_ms", quietLatency(rep.pools["full_read_s"])*1e3)
	rep.set("rate_per_s", quietRate(rep.pools["lookup_rps"]))
	if cfg.tr == nil {
		return nil
	}
	lookupNS, err := probeLookup(cfg.tr, cfg.seed, zipfIDs(cfg.seed, serveN, zipfStream))
	if err != nil {
		return err
	}
	rep.set("serve.lookup_ns", lookupNS)
	return writeBudget(rep.workload, lookupBudget(rep))
}

const zipfStream = 1 << 18 // ids generated per boot; the closed loop cycles through them

func measureRead(cfg runConfig, env *environment, rep *report) error {
	tr := cfg.tr
	start := time.Now()
	setup := tr.begin("setup", -1, 0)
	zipf := zipfIDs(cfg.seed, serveN, zipfStream)
	trickle := edgeBatches(cfg.seed, "trickle", serveN, 256)
	conns := runtime.NumCPU()
	uniform := make([][]int64, conns)
	for c := range uniform {
		uniform[c] = uniformIDs(cfg.seed, c, serveN, 1<<16)
	}
	dataDir, err := env.tempDir("read-leader")
	if err != nil {
		return err
	}
	leader, err := env.start("leader", "serve-read-leader", append(baseArgs(cfg.seed),
		"-synthetic", strconv.Itoa(serveN), "-data-dir", dataDir)...)
	if err != nil {
		return err
	}
	tr.end(setup)
	rep.set("setup_s", time.Since(start).Seconds())

	before, err := takeScrape(leader)
	if err != nil {
		return err
	}
	rep.check(before.stats.Vertices == serveN && before.stats.K == serveK,
		"leader booted with %d vertices, k=%d", before.stats.Vertices, before.stats.K)
	length := phases(cfg.seconds, readShares)

	// Phase A.
	var trickled, trickleBad int
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		cli := newClient(leader.addr)
		tick := time.NewTicker(time.Duration(float64(time.Second) / trickleRate))
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			var err error
			tr.timed("client.mutate", -1, int64(i), func() { _, err = cli.Mutate(bg, trickle[i%len(trickle)]) })
			trickled++
			if err != nil {
				trickleBad++
				rep.note("trickled batch %d: %v", i, err)
			}
		}
	}()
	lat, badA := closedLoop(newClient(leader.addr), rep, tr, zipf, time.Now(), length[0])
	close(stop)
	wg.Wait()
	rep.ops(len(lat), badA)
	rep.ops(trickled, trickleBad)
	if len(lat) == 0 {
		return errors.New("phase A completed no lookup")
	}
	afterA, err := takeScrape(leader)
	if err != nil {
		return err
	}

	// Phase B.
	benchCPU := cpuTime(os.Getpid())
	loaded := make([][]timed, conns)
	var badB atomic.Int64
	startB := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var bad int
			loaded[c], bad = closedLoop(newClient(leader.addr), rep, tr, uniform[c], startB, length[1])
			badB.Add(int64(bad))
		}()
	}
	wg.Wait()
	elapsedB := time.Since(startB).Seconds()
	benchCPU = cpuTime(os.Getpid()) - benchCPU
	doneB := slices.Concat(loaded...)
	rep.ops(len(doneB), int(badB.Load()))
	afterB, err := takeScrape(leader)
	if err != nil {
		return err
	}

	// Phase C: the whole map, as a client that fell behind the change feed
	// reads it.
	var full []timed
	badC := 0
	for startC := time.Now(); time.Since(startC) < length[2]; {
		var all *api.ResyncResponse
		var err error
		d := tr.timed("client.lookup_all", -1, int64(len(full)), func() { all, err = leader.cli.LookupAll(bg) })
		if err != nil || all.Vertices != serveN || len(all.Labels) != serveN || all.K != serveK {
			badC++
			rep.note("full read: %v", err)
		}
		full = append(full, timed{time.Since(startC), d.Seconds()})
	}
	rep.ops(len(full), badC)

	// At quiescence, point lookups must agree with the full dump.
	_, mismatched, err := settledLabels(leader, func(labels []int32) int {
		n := 0
		for _, v := range zipf[:1000] {
			r, err := leader.cli.Lookup(bg, v)
			if !lookupOK(r, err) || r.Partition != labels[v] {
				n++
			}
		}
		return n
	})
	if err != nil {
		return err
	}
	rep.ops(1000, mismatched)
	if mismatched > 0 {
		rep.note("%d of 1000 sampled lookups disagree with LookupAll at quiescence", mismatched)
	}
	end, err := leader.cli.Stats(bg)
	if err != nil {
		return err
	}

	rep.pool("lookup_s", windowMedians(lat, lookupWindow, length[0]))
	rep.pool("lookup_rps", windowRates(doneB, lookupWindow, length[1]))
	rep.pool("full_read_s", windowMedians(full, lookupWindow, length[2]))
	sorted := sortedCopy(values(lat))
	p50, p99 := percentile(sorted, 50), percentile(sorted, 99)
	rps := float64(len(doneB)) / elapsedB
	rep.set("phi", 1-end.Cut)
	fmt.Printf("# serve-read boot: lookup p50 %.1f us, p99 %.1f us over %d samples; %d lookups on %d connections in phase B; %d full reads\n",
		p50*1e6, p99*1e6, len(lat), len(doneB), conns, len(full))
	if tr == nil {
		return nil
	}

	serverP50 := afterA.quantileSince(before, "spinner_http_request_duration_seconds", route("lookup"), 0.50)
	rep.set("client.lookup_p50_us", p50*1e6)
	rep.set("client.lookup_p99_us", p99*1e6)
	rep.set("client.lookup_max_rps", rps)
	rep.set("client.lookup_all_p50_ms", median(values(full))*1e3)
	rep.set("client.samples_lookup", float64(len(lat)))
	rep.set("client.lookup_overhead_p50_us", (p50-serverP50)*1e6)
	rep.set("api.lookup_server_p50_us", serverP50*1e6)
	rep.set("api.lookup_server_p99_us", afterA.quantileSince(before, "spinner_http_request_duration_seconds", route("lookup"), 0.99)*1e6)
	rep.set("api.mutate_server_p50_us", afterA.quantileSince(before, "spinner_http_request_duration_seconds", route("mutate"), 0.50)*1e6)
	setPipelineMetrics(rep, before, afterB)
	leaderCPU := (afterB.cpu - afterA.cpu).Seconds()
	rep.set("proc.leader_cpu_us_per_lookup", ratio(leaderCPU*1e6, float64(len(doneB))))
	rep.set("proc.loadgen_cpu_share", ratio(benchCPU.Seconds(), benchCPU.Seconds()+leaderCPU))
	rep.set("proc.leader_peak_rss_mb", peakRSSMB(leader.cmd.Process.Pid))
	rep.set("wal.data_dir_mb", dirSizeMB(dataDir))
	return nil
}

// setPipelineMetrics derives the serve and wal layer numbers from what a
// leader's stage histograms and counters took on between two scrapes.
func setPipelineMetrics(rep *report, before, after scrape) {
	q := func(st string, quant float64) float64 {
		return after.quantileSince(before, "spinner_stage_duration_seconds", stage(st), quant)
	}
	rep.set("serve.stage_drain_p50_us", q("drain", 0.50)*1e6)
	rep.set("serve.stage_apply_p50_us", q("apply", 0.50)*1e6)
	rep.set("serve.stage_apply_p99_us", q("apply", 0.99)*1e6)
	rep.set("serve.stage_publish_p50_ms", q("publish", 0.50)*1e3)
	rep.set("serve.stage_checkpoint_capture_p50_ms", q("checkpoint_capture", 0.50)*1e3)
	rep.set("wal.stage_journal_p50_us", q("journal", 0.50)*1e6)
	rep.set("wal.stage_journal_p99_us", q("journal", 0.99)*1e6)
	rep.set("wal.stage_checkpoint_write_p50_ms", q("checkpoint_write", 0.50)*1e3)
	rep.set("api.watch_fanout_p50_us", after.quantileSince(before, "spinner_watch_fanout_duration_seconds", nil, 0.50)*1e6)

	c := func(name string) float64 { return after.counterSince(before, name) }
	batches := c("spinner_batches_applied_total")
	rep.set("serve.coalesce_ratio", ratio(c("spinner_coalesced_batches_total"), batches))
	rep.set("serve.deltas_per_batch", ratio(c("spinner_deltas_published_total"), batches))
	rep.set("serve.restabilizations", c("spinner_restabilizations_total"))
	rep.set("serve.cut_ratio_end", after.stats.Cut)
	rep.set("wal.group_depth", ratio(c("spinner_grouped_entries_total"), c("spinner_group_commits_total")))
	rep.set("wal.syncs_per_batch", ratio(c("spinner_journal_syncs_total"), batches))
	rep.set("wal.journal_bytes_per_batch", ratio(c("spinner_journal_bytes_total"), batches))
	rep.set("wal.checkpoint_bytes_per_batch", ratio(c("spinner_checkpoint_bytes_total"), batches))
	rep.set("replica.frames_per_batch", ratio(c("spinner_replica_frames_sent_total"), batches))
	rep.set("replica.bytes_per_batch", ratio(c("spinner_replica_bytes_sent_total"), batches))
}

// feed is the consumer side of one /v1/watch stream: it rebuilds the label
// map from the deltas and notes when each new vertex first became visible.
type feed struct {
	n0     int
	mu     sync.Mutex
	labels []int32
	maxN   int
	seen   []time.Time // seen[m]: first delta with N >= n0+m+1, i.e. marker m visible
	err    error
	done   chan struct{}
}

// observe applies one delta that arrived at the given time. A marker is
// visible at the first delta whose N covers its vertex: later deltas that
// repeat that N, or coalesce several markers into one jump, change nothing
// for vertices already seen.
func (f *feed) observe(d *serve.Delta, at time.Time) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	labels, err := d.Apply(f.labels)
	if err != nil {
		return err
	}
	f.labels = labels
	for f.maxN < d.N {
		f.maxN++
		if f.maxN > f.n0 {
			f.seen = append(f.seen, at)
		}
	}
	return nil
}

func (f *feed) visible() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.seen)
}

// watch opens a stream from sequence 0 (the first delta is the full
// baseline) on a connection of its own and consumes it until ctx ends or
// the stream breaks.
func watch(ctx context.Context, d *daemon, n0 int) (*feed, error) {
	w, err := newClient(d.addr).Watch(ctx, 0)
	if err != nil {
		return nil, fmt.Errorf("watch %s: %w", d.name, err)
	}
	f := &feed{n0: n0, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		defer w.Close()
		for {
			ev, err := w.Recv()
			if err == nil && ev.Delta != nil {
				err = f.observe(ev.Delta, time.Now())
			}
			if err != nil {
				f.mu.Lock()
				f.err = err
				f.mu.Unlock()
				return
			}
		}
	}()
	return f, nil
}

// sinceDue is the package-level sinceDue over what the feed has seen so far.
func (f *feed) sinceDue(due []time.Time) []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return sinceDue(f.seen, due)
}

// stamped pairs each marker's visibility latency with its due time as an
// offset into the phase.
func stamped(due []time.Time, start time.Time, vis []float64) []timed {
	out := make([]timed, len(vis))
	for m, v := range vis {
		out[m] = timed{due[m].Sub(start), v}
	}
	return out
}

// sinceDue returns, for each marker both present in seen, the time from
// its due instant to its first visibility, in seconds.
func sinceDue(seen []time.Time, due []time.Time) []float64 {
	out := make([]float64, 0, len(due))
	for m := 0; m < len(due) && m < len(seen); m++ {
		out = append(out, seen[m].Sub(due[m]).Seconds())
	}
	return out
}

// runOpenLoop posts plan's bodies over one connection on their fixed grid:
// a late request is sent at once and its successors are not pushed back,
// so a stall shows up as latency of everything that was due meanwhile.
// It returns each body's due instant, how late it was sent and how long
// the acknowledgement took; sleep and now are injectable for the test.
func runOpenLoop(plan openLoopPlan, start time.Time, now func() time.Time, sleep func(time.Duration), post func(i int) error) (due []time.Time, late, ack []float64, bad int) {
	for i := range plan.Bodies {
		at := start.Add(plan.Due[i])
		if wait := at.Sub(now()); wait > 0 {
			sleep(wait)
		}
		sent := now()
		if post(i) != nil {
			bad++
		}
		due = append(due, at)
		late = append(late, sent.Sub(at).Seconds())
		ack = append(ack, now().Sub(sent).Seconds())
	}
	return due, late, ack, bad
}

// runServeWrite: a durable leader (fsync on every group), a follower and a
// passive watch stream on each. Phase A is an open loop — users' edits
// arrive independently of how fast earlier ones were applied — whose
// marker batches time "mutation in, label visible on every replica and
// watcher"; phase B floods to find the applied-batch ceiling; then the
// leader is killed and timed back to its first answered lookup.
func runServeWrite(cfg runConfig, env *environment, rep *report) error {
	if err := overBoots(cfg, env, rep, measureWrite); err != nil {
		return err
	}
	rep.set("op_p50_ms", quietLatency(rep.pools["visible_s"])*1e3)
	rep.set("op_slow_ms", quietLatency(rep.pools["replica_visible_s"])*1e3)
	rep.set("rate_per_s", quietRate(rep.pools["applied_bps"]))
	if cfg.tr == nil {
		return nil
	}
	lenA := phases(cfg.seconds/serveBoots, writeShares)[0]
	parseUS, submitUS, err := probeWrite(cfg.tr, cfg.seed, planOpenLoop(cfg.seed, serveN, openRate, lenA))
	if err != nil {
		return err
	}
	rep.set("api.parse_mutation_us", parseUS)
	rep.set("serve.submit_us", submitUS)
	return writeBudget(rep.workload, mutationBudget(rep))
}

func measureWrite(cfg runConfig, env *environment, rep *report) error {
	tr := cfg.tr
	length := phases(cfg.seconds, writeShares)
	lenA, lenB := length[0], length[1]
	conns := runtime.NumCPU()

	start := time.Now()
	setup := tr.begin("setup", -1, 0)
	plan := planOpenLoop(cfg.seed, serveN, openRate, lenA)
	flood := make([][]string, conns)
	for c := range flood {
		flood[c] = edgeBatches(cfg.seed, fmt.Sprintf("flood/%d", c), serveN, 2048)
	}
	leaderDir, err := env.tempDir("write-leader")
	if err != nil {
		return err
	}
	followerDir, err := env.tempDir("write-follower")
	if err != nil {
		return err
	}
	leader, err := env.start("leader", "serve-write-leader", append(baseArgs(cfg.seed),
		"-synthetic", strconv.Itoa(serveN), "-data-dir", leaderDir, "-fsync", "always", "-checkpoint-every", "1024")...)
	if err != nil {
		return err
	}
	follower, err := env.start("follower", "serve-write-follower", append(baseArgs(cfg.seed),
		"-follow", leader.addr, "-data-dir", followerDir)...)
	if err != nil {
		return err
	}
	// The two stream readers stop when their context ends; wait for them.
	ctx, cancel := context.WithCancel(bg)
	var feeds []*feed
	defer func() {
		cancel()
		for _, f := range feeds {
			<-f.done
		}
	}()
	for _, d := range []*daemon{leader, follower} {
		f, err := watch(ctx, d, serveN)
		if err != nil {
			return err
		}
		feeds = append(feeds, f)
	}
	leaderFeed, followerFeed := feeds[0], feeds[1]
	tr.end(setup)
	rep.set("setup_s", time.Since(start).Seconds())

	before, err := takeScrape(leader)
	if err != nil {
		return err
	}
	fBefore, err := takeScrape(follower)
	if err != nil {
		return err
	}
	rep.check(before.stats.Vertices == serveN && before.stats.K == serveK,
		"leader booted with %d vertices, k=%d", before.stats.Vertices, before.stats.K)

	// Phase A: the open loop.
	// A 429 in the open loop (a stall filled the bounded log and the
	// generator is catching up) is retried on the same connection until
	// accepted: the batch keeps its place in the order and its due time,
	// so the refusal costs latency, not a marker.
	var accepted, refused, badB atomic.Int64
	sender := newClient(leader.addr)
	post := func(i int) error {
		var err error
		for giveUp := time.Now().Add(10 * time.Second); time.Now().Before(giveUp); time.Sleep(floodBackoff) {
			tr.timed("client.mutate", -1, int64(i), func() { _, err = sender.Mutate(bg, plan.Bodies[i]) })
			if !isRefusal(err) {
				break
			}
			refused.Add(1)
		}
		if err != nil {
			rep.note("open-loop batch %d: %v", i, err)
		}
		return err
	}
	startA := time.Now().Add(20 * time.Millisecond)
	due, late, ack, badA := runOpenLoop(plan, startA, time.Now, time.Sleep, post)
	rep.ops(len(plan.Bodies), badA)
	markerDue := make([]time.Time, len(plan.Markers))
	for m, i := range plan.Markers {
		markerDue[m] = due[i]
	}
	// Every marker must show up on both streams.
	for wait := time.Now().Add(20 * time.Second); time.Now().Before(wait); time.Sleep(5 * time.Millisecond) {
		if leaderFeed.visible() >= len(markerDue) && followerFeed.visible() >= len(markerDue) {
			break
		}
	}
	visL, visF := leaderFeed.sinceDue(markerDue), followerFeed.sinceDue(markerDue)
	rep.ops(len(markerDue), len(markerDue)-len(visL))
	rep.ops(len(markerDue), len(markerDue)-len(visF))
	if len(visL) < len(markerDue) || len(visF) < len(markerDue) {
		rep.note("of %d markers, %d became visible on the leader's stream and %d on the follower's", len(markerDue), len(visL), len(visF))
	}
	if len(visL) == 0 || len(visF) == 0 {
		return fmt.Errorf("no marker became visible (leader %d, follower %d of %d)", len(visL), len(visF), len(markerDue))
	}
	for m := range visL {
		tr.record("watch.leader", markerDue[m], visL[m], int64(plan.Markers[m]))
	}
	for m := range visF {
		tr.record("watch.follower", markerDue[m], visF[m], int64(plan.Markers[m]))
	}
	afterA, err := takeScrape(leader)
	if err != nil {
		return err
	}

	// Phase B: flood. An observer reads the applied counter once per window.
	var wg sync.WaitGroup
	benchCPU := cpuTime(os.Getpid())
	startB := time.Now()
	deadline := startB.Add(lenB)
	applied := []timed{{0, float64(afterA.stats.Applied)}}
	flooded, observed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(observed)
		tick := time.NewTicker(floodWindow)
		defer tick.Stop()
		for {
			select {
			case <-flooded:
				return
			case <-tick.C:
			}
			if st, err := leader.cli.Stats(bg); err == nil {
				applied = append(applied, timed{time.Since(startB), float64(st.Applied)})
			}
		}
	}()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := newClient(leader.addr)
			for i := 0; time.Now().Before(deadline); i++ {
				var err error
				tr.timed("client.mutate", -1, int64(i), func() { _, err = cli.Mutate(bg, flood[c][i%len(flood[c])]) })
				switch {
				case err == nil:
					accepted.Add(1)
				case isRefusal(err):
					refused.Add(1)
					time.Sleep(floodBackoff)
				default:
					badB.Add(1)
					rep.note("flooded batch: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	close(flooded)
	<-observed
	afterB, err := takeScrape(leader)
	if err != nil {
		return err
	}
	elapsedB := time.Since(startB).Seconds()
	benchCPU = cpuTime(os.Getpid()) - benchCPU
	rep.ops(int(accepted.Load()+refused.Load()+badB.Load()), int(badB.Load()))
	bps := float64(afterB.stats.Applied-afterA.stats.Applied) / elapsedB

	// Quiesce, then check every view of the state against the leader's.
	truth, leaderDiff, err := settledLabels(leader, leaderFeed.differsFrom)
	if err != nil {
		return err
	}
	replica, followerDiff, err := settledLabels(follower, followerFeed.differsFrom)
	if err != nil {
		return err
	}
	end, err := takeScrape(leader)
	if err != nil {
		return err
	}
	fEnd, err := takeScrape(follower)
	if err != nil {
		return err
	}
	sent := len(plan.Bodies) - badA + int(accepted.Load())
	rep.check(int(end.stats.Applied-before.stats.Applied) == sent, "leader applied %d batches, %d were accepted",
		end.stats.Applied-before.stats.Applied, sent)
	rep.check(truth.Vertices == serveN+len(plan.Markers), "leader has %d vertices, want boot %d + %d markers",
		truth.Vertices, serveN, len(plan.Markers))
	// The follower must hold the leader's graph exactly. Its labels may
	// differ: restabilization merges are neither journaled nor replicated,
	// so only quiesced histories are bit-identical (README.md, "Checks").
	sameState(rep, "follower", replica, fEnd.stats, truth, end.stats)
	rep.check(fEnd.stats.AppliedSeq == end.stats.AppliedSeq, "follower applied_seq %d, leader %d", fEnd.stats.AppliedSeq, end.stats.AppliedSeq)
	for i, diff := range []int{leaderDiff, followerDiff} {
		f, name := feeds[i], []string{"leader", "follower"}[i]
		rep.check(diff == 0, "labels rebuilt from the %s feed differ from its LookupAll in %d places", name, diff)
		f.mu.Lock()
		rep.check(f.err == nil, "%s watch stream broke: %v", name, f.err)
		f.mu.Unlock()
	}
	rep.check(end.counter("spinner_cut_drift_total") == 0, "spinner_cut_drift_total = %v", end.counter("spinner_cut_drift_total"))
	dataMB := dirSizeMB(leaderDir)
	leaderRSS, followerRSS := peakRSSMB(leader.cmd.Process.Pid), peakRSSMB(follower.cmd.Process.Pid)

	// Crash the leader and time it back. The kill follows a quiesce: this
	// times recovery; the repository's smoke scripts test durability.
	leader.kill()
	leader, recovery, err := env.restart(leader, "serve-write-leader")
	if err != nil {
		return err
	}
	after, err := leader.cli.LookupAll(bg)
	if err != nil {
		return err
	}
	recovered, err := takeScrape(leader)
	if err != nil {
		return err
	}
	sameState(rep, "recovered leader", after, recovered.stats, truth, end.stats)

	rep.pool("visible_s", windowMedians(stamped(markerDue, startA, visL), markerWindow, lenA))
	rep.pool("replica_visible_s", windowMedians(stamped(markerDue, startA, visF), markerWindow, lenA))
	var floodRates []float64
	for i := 1; i < len(applied); i++ {
		floodRates = append(floodRates, (applied[i].v-applied[i-1].v)/(applied[i].at-applied[i-1].at).Seconds())
	}
	rep.pool("applied_bps", floodRates)
	vl, vf := sortedCopy(visL), sortedCopy(visF)
	rep.set("phi", 1-afterA.stats.Cut)
	fmt.Printf("# serve-write boot: %d markers; visible p50 %.2f ms (leader) %.2f ms (follower); %d batches flooded, %d refusals (429) retried; recovery %.3f s\n",
		len(visL), percentile(vl, 50)*1e3, percentile(vf, 50)*1e3, accepted.Load(), refused.Load(), recovery.Seconds())
	if tr == nil {
		return nil
	}

	rep.set("client.visible_p50_ms", percentile(vl, 50)*1e3)
	rep.set("client.visible_p99_ms", percentile(vl, 99)*1e3)
	rep.set("client.replica_visible_p50_ms", percentile(vf, 50)*1e3)
	rep.set("client.replica_visible_p99_ms", percentile(vf, 99)*1e3)
	rep.set("client.samples_visible", float64(len(visL)))
	rep.set("client.mutate_max_bps", bps)
	rep.set("client.mutate_ack_p50_us", median(ack)*1e6)
	rep.set("client.late_p50_us", median(late)*1e6)
	rep.set("client.late_max_ms", slices.Max(late)*1e3)
	rep.set("client.recovery_s", recovery.Seconds())
	rep.set("replica.divergence_frac", ratio(float64(differing(replica.Labels, truth.Labels)), float64(len(truth.Labels))))
	rep.set("wal.recovery_divergence_frac", ratio(float64(differing(after.Labels, truth.Labels)), float64(len(truth.Labels))))
	rep.set("replica.hop_p50_ms", (percentile(vf, 50)-percentile(vl, 50))*1e3)
	rep.set("api.refused_frac", ratio(float64(refused.Load()), float64(refused.Load()+accepted.Load()+int64(len(plan.Bodies)))))
	rep.set("api.mutate_server_p50_us", afterA.quantileSince(before, "spinner_http_request_duration_seconds", route("mutate"), 0.50)*1e6)
	setPipelineMetrics(rep, before, end)
	// The stage medians of the budget are phase A's alone: the flood's
	// deep groups would describe a different regime.
	q := func(st string) float64 {
		return afterA.quantileSince(before, "spinner_stage_duration_seconds", stage(st), 0.50)
	}
	rep.set("serve.stage_drain_p50_us", q("drain")*1e6)
	rep.set("serve.stage_apply_p50_us", q("apply")*1e6)
	rep.set("wal.stage_journal_p50_us", q("journal")*1e6)
	rep.set("api.watch_fanout_p50_us", afterA.quantileSince(before, "spinner_watch_fanout_duration_seconds", nil, 0.50)*1e6)
	rep.set("replica.apply_lag_records_p50", fEnd.quantileSince(fBefore, "spinner_replica_apply_lag_records", nil, 0.50))
	rep.set("wal.data_dir_mb", dataMB)
	rep.set("wal.replayed_records", recovered.counter("spinner_replayed_records_total"))
	batchesB := float64(afterB.stats.Applied - afterA.stats.Applied)
	rep.set("proc.leader_cpu_us_per_batch", ratio((afterB.cpu-afterA.cpu).Seconds()*1e6, batchesB))
	rep.set("proc.follower_cpu_us_per_batch", ratio((fEnd.cpu-fBefore.cpu).Seconds()*1e6, float64(end.stats.Applied-before.stats.Applied)))
	rep.set("proc.loadgen_cpu_share", ratio(benchCPU.Seconds(), benchCPU.Seconds()+(afterB.cpu-afterA.cpu).Seconds()))
	rep.set("proc.leader_peak_rss_mb", leaderRSS)
	rep.set("proc.follower_peak_rss_mb", followerRSS)
	// The follower re-dials the restarted leader on its own schedule.
	if fNow, err := takeScrape(follower); err == nil {
		rep.set("replica.reconnects", fNow.counter("spinner_replica_reconnects_total"))
	}
	return nil
}
