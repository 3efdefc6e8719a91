// Package serve is the live partition-maintenance service: the
// production-shaped layer that turns Spinner's batch algorithms into a
// long-running system answering vertex→partition lookups under heavy
// concurrent traffic while the partitioning evolves underneath — the
// paper's core claim (§III-D/E) that partitions are *maintained*, not
// recomputed.
//
// # Architecture
//
// A Store is split into N shards, each owning a contiguous vertex range
// (its adjacency rows, its segment of the labeling, and the incremental
// cut counters of the edges whose lower endpoint falls in the range),
// coordinated by one control goroutine. Three planes:
//
//   - Read plane: a lookup loads the immutable vertex→shard route table
//     through one atomic pointer and the target shard's immutable snapshot
//     through another. No locks, no contention with writers; a published
//     snapshot is never mutated, so readers hold it as long as they like.
//     Lookups and stats never compose: Summary reads the shard headers of
//     one consistent sweep (vertex count, k, version, cut) in O(shards·k);
//     LabelRuns is that Summary plus the sweep's published label segments,
//     copied by no one (the /v1/lookup whole-map body is encoded from
//     them), and Snapshot composes those segments into one O(n) copy for
//     the callers that want a single slice.
//   - Write plane: graph.Mutation batches enter a bounded mutation log (a
//     buffered channel). Submit blocks for backpressure, TrySubmit fails
//     fast with ErrLogFull. Each coordinator turn has three stages:
//     maintain (the maintenance plane below); drain, which forms
//     everything pending in the log into one commit group; and commit,
//     which journals the group as one wal group (one write + one fsync on
//     durable stores — group commit), then applies it in order, merging
//     each maximal run of consecutive add-only batches into a single shard
//     broadcast (coalesced apply: one scan, one cut-delta fold, one
//     snapshot publication per shard for the whole run). Edge-addition
//     batches between existing vertices — the high-rate churn case —
//     broadcast to every shard: each picks out the arcs whose rows it
//     owns (two compares per edge), appends them, and folds an O(batch)
//     delta into its cut counters (labels are frozen between barriers, so
//     no synchronization is needed), then publishes an O(k) snapshot that
//     reuses the previous label copy. Batches that append vertices or
//     remove edges take the barrier path: the coordinator parks every
//     shard, applies the batch atomically to the merged graph, places new
//     vertices on the least loaded partitions (§III-D) from the shards'
//     maintained loads, folds the batch's exact cut deltas into the owning
//     shards (graph.Mutation.CutEdits), and republishes — O(batch) under
//     the barrier, never a scan of the graph. Anything else that must
//     happen at a position in that order (a quiesce, recovery's journal
//     attach and exact check) rides the same log as a control: a
//     function the coordinator runs there, whose error is the reply.
//   - Maintenance plane: one pass at the top of every turn (maintain)
//     decides all background work — load sampling, the periodic
//     rebalance, checkpoints, restabilization, releasing quiescers — and
//     is where the degradation budget defers it under overload. The
//     coordinator tracks the composed cut ratio cross/total from integer
//     per-shard counters — O(shards) per check instead of the seed's
//     exact O(E) recompute per swap. Past the
//     degradation threshold it barriers the shards, clones the merged
//     graph, and restabilizes in a background goroutine (§III-D) while the
//     shards keep ingesting and serving. A completed run becomes a relabel
//     entry: the label runs it changed, journaled (wal.RecordRelabel) and
//     then applied under a barrier at that log position, by the same code
//     a follower and journal replay adopt it with (applyRelabel). Only a
//     writable, journaling store restabilizes; a follower or a replaying
//     store never computes a relabeling, it adopts the journaled one.
//     Elastic k→k′ (§III-E) relabels the n/(k+n) fraction under a barrier
//     (a function of k′ and the seed, so a resize record is enough to
//     replay it) and repairs in the background; in-flight runs from the
//     old k-space are discarded. Both land through one function, relabel:
//     it swaps the full label array in, moves the counters by the arcs of
//     the vertices whose label changed (or, past moveShare, counts them
//     again), republishes and returns the label runs that changed. Every
//     512 applied batches a periodic pass rebalances shard boundaries by
//     weighted degree (cluster.BalancedRanges) and moves the counters
//     with the rows that change owner (moveBounds); it never recounts
//     them, they are exact integer arithmetic.
//
// Shard counters: for the edges it owns a shard keeps the integer cut
// counters (cross, total, perPart) and load, the owned edges' share of the
// partition loads b(l) (Eq. 6): every edge adds its weight at both
// endpoints' labels. All four move through one update (shard.count) at
// four places: the shard goroutine applying a fast-path edge
// (shard.apply); the coordinator folding a barrier batch's CutEdits
// (applyGlobalBatch); a relabeling event (moveLabels), where every edge at
// a changed vertex leaves its old labels for its new ones, once, under the
// shard that owns its lower endpoint — O(arcs of the changed vertices);
// and a boundary move (moveBounds), where a row that changes owner takes
// the edges it owns from the old shard to the new one — O(arcs of the
// moved rows). The counters are counted from the graph
// (metrics.CutWeightsRange) at construction, for a relabel too large to
// move (moveShare) and by reconcileNow, the exact check, which compares
// all four with an exact recount (and repairs a shard that drifted); Open
// runs it after replay and the tests after their histories.
// The loads are why a batch that appends vertices never reads the graph:
// the paper's implementation has b(l) to hand as aggregators, and
// applyGlobalBatch sums the shards' load (O(shards·k)), adds the batch's own
// edits at their pre-existing endpoints and passes that to
// core.PlaceNewVertices. Loads are sums of int32 weights, hence exact: equal
// to what a scan of the graph (core.SeedNewVertices) sums, whatever the
// shard count or the order the edges arrived in. Placement is a function of
// the loads alone, so leader, follower and replay place every vertex alike,
// and where the scan placed it. Nothing new is checkpointed; counters are
// recomputed at open.
//
// Determinism: with a fixed Options.Seed, a quiesced submit/await sequence
// yields identical labels regardless of worker count, shard count, or
// wall-clock timing: fast-path batches never relabel, every relabeling
// event runs under a barrier on the merged graph, and restabilization
// seeds derive from the run epoch. (Unquiesced sequences interleave merges
// with ingest nondeterministically, as any live system does.) Whatever the
// timing, the journal records where each merge landed, so a follower or a
// recovery that applies the journal reaches the leader's labels exactly.
package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// Errors returned by the submission paths.
var (
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("serve: store closed")
	// ErrLogFull is returned by TrySubmit when the bounded mutation log is
	// at capacity (backpressure; retry or fall back to Submit).
	ErrLogFull = errors.New("serve: mutation log full")
)

// Config tunes a Store.
type Config struct {
	// Options configures the partitioner used for restabilization and
	// elastic repair. Options.K is the initial partition count. The zero
	// value of a field falls back to core defaults via normalization.
	Options core.Options
	// LogDepth bounds the mutation log; Submit blocks (and TrySubmit
	// fails) when this many entries are pending. Default 64.
	LogDepth int
	// DegradeFactor triggers a restabilization run when the tracked cut
	// ratio exceeds baseline·DegradeFactor + DegradeSlack, where baseline
	// is the cut ratio achieved by the last stabilization. Default 1.10
	// (10% degradation).
	DegradeFactor float64
	// DegradeSlack is the additive term of the trigger, guarding against a
	// zero baseline on perfectly separable graphs. Default 0.005.
	DegradeSlack float64
	// Shards is the number of contiguous vertex-range shards mutation
	// application parallelizes over (clamped to the vertex count).
	// Default 1 — a single shard reproduces the unsharded timing exactly;
	// serving deployments set it near the core count.
	Shards int
	// DeltaRing bounds the change-feed publication ring (delta.go): how
	// many Delta records stay retrievable for watch consumers before the
	// compaction floor rises past them. Default 1024.
	DeltaRing int
	// Durability tunes the journal + checkpoint subsystem. Only the
	// durable constructors (NewDurable, BootstrapDurable, Open) read it;
	// New and Bootstrap build in-memory stores regardless.
	Durability DurabilityConfig
	// Quota tunes per-tenant admission control and fair draining; the
	// zero value admits everything and weighs all tenants equally.
	Quota QuotaConfig
	// Overload tunes the degradation budget; the zero value never
	// declares overload.
	Overload OverloadConfig
	// LookupSampleEvery times one in N lookups into the lookup-latency
	// histogram (N is rounded up to a power of two). Timing every lookup
	// would roughly double the ~50ns lock-free path, so sampling keeps
	// the instrumented cost within noise while still filling the
	// histogram quickly at serving rates. 0 means the default 256;
	// negative disables lookup timing entirely.
	LookupSampleEvery int
}

const (
	// shardLogDepth bounds each shard's sub-batch log.
	shardLogDepth = 32
	// reconcileEvery is the cadence, in resolved batches, of the periodic
	// shard-boundary rebalance (maintain).
	reconcileEvery = 512
	// moveShare bounds the relabel whose counters move (moveLabels): one
	// whose changed vertices hold more than 1/moveShare of the arcs
	// counts every shard from the graph instead.
	moveShare = 8
)

func (c *Config) normalize() error {
	// Validate the partitioner configuration up front so a misconfigured
	// store fails at construction, not at the first background run.
	if _, err := core.NewPartitioner(c.Options); err != nil {
		return err
	}
	if c.LogDepth == 0 {
		c.LogDepth = 64
	}
	if c.LogDepth < 1 {
		return fmt.Errorf("serve: LogDepth=%d", c.LogDepth)
	}
	if c.DegradeFactor == 0 {
		c.DegradeFactor = 1.10
	}
	if c.DegradeFactor < 1 {
		return fmt.Errorf("serve: DegradeFactor=%v, want >= 1", c.DegradeFactor)
	}
	if c.DegradeSlack == 0 {
		c.DegradeSlack = 0.005
	}
	if c.DegradeSlack < 0 {
		return fmt.Errorf("serve: negative DegradeSlack")
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 1 {
		return fmt.Errorf("serve: Shards=%d", c.Shards)
	}
	if c.DeltaRing == 0 {
		c.DeltaRing = 1024
	}
	if c.DeltaRing < 1 {
		return fmt.Errorf("serve: DeltaRing=%d", c.DeltaRing)
	}
	if c.LookupSampleEvery == 0 {
		c.LookupSampleEvery = 256
	}
	if err := c.Quota.normalize(); err != nil {
		return err
	}
	return c.Overload.normalize()
}

// Summary is the header of a composed view: everything a Snapshot says
// about the partitioning except the labels themselves. It costs
// O(shards·k) and copies no label, so lookups and stats never compose:
// callers that want a count, k, the version or the cut read Summary;
// only callers that read labels pay for Snapshot.
type Summary struct {
	// Vertices is the vertex count at publication (len(Snapshot.Labels)).
	Vertices int
	// K is the partition count the view's labels live in.
	K int
	// Version counts snapshot publications, summed over shards
	// (monotonically increasing).
	Version uint64
	// AppliedBatches counts mutation batches resolved (applied or
	// rejected) at composition time.
	AppliedBatches uint64
	// Epoch counts restabilization merges reflected in this view.
	Epoch uint64
	// CutRatio is CutWeight/TotalWeight: the fraction of edge weight
	// crossing partitions (1−φ), tracked incrementally in integers.
	CutRatio float64
	// CutWeight and TotalWeight are the integer cut counters the ratio
	// derives from; CutByPartition is each partition's external weight
	// (a cut edge contributes its weight to both endpoints' partitions).
	CutWeight      int64
	TotalWeight    int64
	CutByPartition []int64
	// Shards is the shard count the view was composed from.
	Shards int
}

// Snapshot is an immutable composed view of the partitioning: the
// Summary of one consistent shard sweep plus the global labeling copied
// out of the same sweep. Lookups resolve against exactly one per-shard
// snapshot and never compose one.
type Snapshot struct {
	// Labels maps vertex → partition; len(Labels) == Vertices. The slice
	// is immutable: neither the Store nor callers may write to it.
	Labels []int32
	Summary
}

// logEntry is one unit of maintenance work, ordered through the log: a
// journaled record — a mutation batch (Mut), an elastic resize (NewK > 0)
// or a restabilization's label runs (Relabel), held as the wal.GroupEntry
// journalGroup appends — or a control, whose GroupEntry is zero.
type logEntry struct {
	wal.GroupEntry
	relabel *Delta  // Relabel decoded, for applyRelabel
	ctl     control // reply non-nil: a control entry
	ten     *tenantState
	seq     uint64 // arrival order, stamped by route; restores FIFO after DRR picking
}

// control is the one completion type of the log: run executes on the
// coordinator goroutine at the entry's log position (every earlier entry
// applied, no later one started) and its error is the reply. A nil run is
// a quiesce: the reply is parked until the store is drained and stable
// (maintain releases it). A closing store replies ErrClosed instead.
type control struct {
	run   func() error
	reply chan error
}

// restabResult carries a completed background run back to the loop.
type restabResult struct {
	gen    uint64  // resize generation the run belongs to
	labels []int32 // one per vertex the run saw
	err    error
}

// coordState is the coordinator state a checkpoint persists, declared
// once: Store embeds it live, ckptState embeds it on disk, and capture and
// restore copy it as a value.
type coordState struct {
	k               int
	bounds          []int
	gen             uint64  // bumped by every resize; stamps in-flight runs
	epoch           uint64  // completed restabilization merges
	baseline        float64 // cut ratio achieved by the last stabilization
	wantRestab      bool    // forced run requested (elastic repair)
	appliedAtRestab int64   // batches resolved when the last run started
	lastReconcile   int64   // batches resolved at the last periodic pass
}

// Store is the live partition-maintenance service. See the package comment
// for the architecture. All exported methods are safe for concurrent use.
type Store struct {
	cfg    Config
	ctr    metrics.ServeCounters
	router atomic.Pointer[routeTable]
	deltas *deltaHub // change-feed ring; internally synchronized

	// Observability plane (instrument.go): the named-series registry the
	// whole process shares, the per-stage pipeline histograms, and the
	// sampled lookup-latency histogram with its sampling mask.
	reg        *metrics.Registry
	stageHist  [numStages]*metrics.Histogram
	lookupHist *metrics.Histogram
	lookupMask uint64

	submitted atomic.Int64 // batches submitted (staleness numerator)
	applied   atomic.Int64 // batches resolved (applied or rejected)
	lastErr   atomic.Pointer[error]

	log       chan logEntry
	batchDone chan struct{} // capacity 1; shards poke after resolving a batch
	closed    chan struct{} // closes when Close is called
	done      chan struct{} // closes when the coordinator exits

	// Admission state, shared between submitters and the coordinator.
	tenantsMu sync.Mutex
	tenants   map[string]*tenantState // lazily created on first submission
	now       func() time.Time        // test clock; nil means time.Now

	// Resize target: the current k composed with every queued resize.
	// Resize claims newK against it atomically, so a duplicate request
	// fails typed (ErrKUnchanged) instead of racing the coordinator.
	kMu     sync.Mutex
	targetK int

	// Overload / fail-stop state (written by the coordinator, read
	// anywhere).
	degraded   atomic.Bool   // journal poisoned; writes refuse with ErrDegraded
	overloaded atomic.Bool   // degradation budget engaged
	drainRate  atomic.Uint64 // EWMA resolved batches/sec (float64 bits)
	lookupRate atomic.Uint64 // EWMA lookups/sec (float64 bits)

	// Replication state (see replication.go). readOnly marks a follower
	// store: external writes refuse with ErrReadOnly while ApplyRecord
	// keeps flowing. journalSeq mirrors durable.lastSeq for
	// lock-free readers (journalWake is signalled each time a commit
	// group advances it), and jrnLive exposes the attached journal to the
	// retention plumbing without entering the coordinator.
	readOnly    atomic.Bool
	journalSeq  atomic.Uint64
	journalWake wakeSet
	jrnLive     atomic.Pointer[wal.Journal]

	// Coordinator state (no locks: single owner between barriers).
	coordState
	w        *graph.Weighted
	labels   []int32
	shards   []*shard
	affected map[graph.VertexID]struct{}
	// pubGen is the label generation, bumped at construction and by every
	// relabel. A boundary move (moveBounds) keeps it: labels do not change,
	// and sweep's tiling check alone refuses a mix of old and new ranges.
	pubGen     uint64
	inflight   bool
	restabDone chan restabResult
	ckptDone   chan ckptResult // capacity 1; background checkpointer reply
	quiescers  []chan error
	d          *durable // nil on in-memory stores

	// Fair-drain state (coordinator-only).
	ring              []*tenantState // tenants with a registered queue, first-seen order
	cursor            int            // DRR rotation point in ring
	controlQ          []logEntry     // routed control entries awaiting the next group
	queued            int            // mutation entries parked in tenant queues
	arrival           uint64         // monotonic arrival stamp
	groupBuf          []logEntry     // group-formation buffer, reused across turns
	loadAt            time.Time      // load-sampling state (updateLoad)
	loadLookups       int64
	loadApplied       int64
	restabDeferred    bool // current overload episode already counted a deferred restab
	reconcileDeferred bool
}

// New builds a Store over an already-partitioned weighted graph. The Store
// takes ownership of w and labels: the caller must not use either again.
// len(labels) must equal w.NumVertices() and every label must be inside
// [0, cfg.Options.K).
func New(w *graph.Weighted, labels []int32, cfg Config) (*Store, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	s, err := newFresh(w, labels, cfg)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// newFresh builds an unstarted store over a partitioning no entry has
// touched yet: the state a checkpoint at sequence 0 would hold (zero
// counters, k = Options.K, one range that newStore splits into
// cfg.Shards balanced ones), with the degradation baseline taken from the
// labels as given. cfg must already be normalized.
func newFresh(w *graph.Weighted, labels []int32, cfg Config) (*Store, error) {
	s, err := newStore(&ckptState{
		coordState: coordState{k: cfg.Options.K, bounds: []int{0, w.NumVertices()}},
		labels:     labels,
		w:          w,
	}, cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.baseline = cutRatio(s.ownedCounters())
	return s, nil
}

// newStore rebuilds the coordinator state st describes — a decoded
// checkpoint (Open) or a fresh partitioning (newFresh) — without starting
// the goroutines, so the durable constructors can checkpoint or replay
// while they still own the state exclusively. cfg must already be
// normalized. The stored shard ranges are restored when cfg asks for the
// same shard count (the bit-identical recovery contract); a different
// cfg.Shards is honored with freshly balanced ranges. The per-shard cut
// counters are always recomputed exactly.
func newStore(st *ckptState, cfg Config) (*Store, error) {
	n := st.w.NumVertices()
	if len(st.labels) != n {
		return nil, fmt.Errorf("%d labels for %d vertices", len(st.labels), n)
	}
	if st.k < 1 {
		return nil, fmt.Errorf("k=%d", st.k)
	}
	if err := metrics.ValidateLabels(st.labels, st.k); err != nil {
		return nil, err
	}
	storedShards := len(st.bounds) - 1
	if st.bounds[0] != 0 || st.bounds[storedShards] != n || !slices.IsSorted(st.bounds) {
		return nil, fmt.Errorf("shard bounds %v do not tile %d vertices", st.bounds, n)
	}
	if cfg.Shards > n {
		cfg.Shards = max(1, n)
	}
	s := &Store{
		cfg:        cfg,
		deltas:     newDeltaHub(cfg.DeltaRing),
		log:        make(chan logEntry, cfg.LogDepth),
		batchDone:  make(chan struct{}, 1),
		closed:     make(chan struct{}),
		done:       make(chan struct{}),
		coordState: st.coordState,
		w:          st.w,
		labels:     st.labels,
		targetK:    st.k,
		affected:   make(map[graph.VertexID]struct{}, len(st.affected)),
		restabDone: make(chan restabResult, 1),
		ckptDone:   make(chan ckptResult, 1),
	}
	s.initMetrics()
	for _, v := range st.affected {
		s.affected[v] = struct{}{}
	}
	s.applied.Store(st.applied)
	s.submitted.Store(st.applied)
	switch {
	case cfg.Shards == storedShards:
		s.bounds = append([]int(nil), st.bounds...)
	case n == 0:
		s.bounds = []int{0, 0}
	default:
		s.bounds = cluster.BalancedRanges(st.w, cfg.Shards)
	}
	for i := 0; i < len(s.bounds)-1; i++ {
		s.shards = append(s.shards, &shard{
			st: s, id: i, w: st.w,
			log:  make(chan shardEntry, shardLogDepth),
			done: make(chan struct{}),
		})
	}
	// Every store starts its change feed with a full-state baseline. Delta
	// sequences are per-process: watch consumers holding sequences from a
	// previous incarnation are told to resync.
	var runs []LabelRun
	if n > 0 {
		runs = []LabelRun{{Start: 0, Labels: append([]int32(nil), s.labels...)}}
	}
	// The one full count outside the exact check: every shard counts the
	// edges it owns from the graph and publishes; afterwards the counters
	// only move (shard.count).
	s.pubGen++
	for i, sh := range s.shards {
		sh.labels, sh.k, sh.epoch, sh.pubGen = s.labels, s.k, s.epoch, s.pubGen
		sh.lo, sh.hi = s.bounds[i], s.bounds[i+1]
		sh.cross, sh.total, sh.perPart, sh.load = metrics.CutWeightsRange(s.w, s.labels, s.k, sh.lo, sh.hi)
		sh.publishFresh()
	}
	s.publishRouter()
	s.emitBarrierDelta(runs, true)
	return s, nil
}

// start launches the shard and coordinator goroutines.
func (s *Store) start() {
	for _, sh := range s.shards {
		go sh.run()
	}
	go s.loop()
}

// Bootstrap partitions g from scratch and starts a Store over the result —
// the one-call path for drivers.
func Bootstrap(g *graph.Graph, cfg Config) (*Store, error) {
	w, labels, err := partitionFromScratch(g, cfg)
	if err != nil {
		return nil, err
	}
	return New(w, labels, cfg)
}

// partitionFromScratch is the batch run behind Bootstrap and
// BootstrapDurable. It validates the whole config first, so a bad one
// fails before the partitioning is paid for.
func partitionFromScratch(g *graph.Graph, cfg Config) (*graph.Weighted, []int32, error) {
	if err := cfg.normalize(); err != nil {
		return nil, nil, err
	}
	p, err := core.NewPartitioner(cfg.Options)
	if err != nil {
		return nil, nil, err
	}
	w := graph.Convert(g)
	res, err := p.PartitionWeighted(w)
	if err != nil {
		return nil, nil, err
	}
	return w, res.Labels, nil
}

// Lookup returns the partition of v in the owning shard's current
// snapshot: one atomic load of the route table, one of the shard snapshot.
// The second return is false when v is not (yet) visible: either never
// created, or appended by a batch whose snapshot has not been published.
func (s *Store) Lookup(v graph.VertexID) (int32, bool) {
	// Latency sampling rides the counter every lookup already pays for:
	// unsampled lookups add one mask compare (~1ns), sampled ones pay the
	// two clock reads. See Config.LookupSampleEvery.
	n := s.ctr.Lookups.Add(1)
	sampled := uint64(n)&s.lookupMask == 0
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	if lag := s.submitted.Load() - s.applied.Load(); lag > 0 {
		s.ctr.StalenessSum.Add(lag)
	}
	for {
		rt := s.router.Load()
		if v < 0 || int(v) >= rt.n {
			s.ctr.LookupMisses.Add(1)
			if sampled {
				s.lookupHist.Record(time.Since(t0))
			}
			return -1, false
		}
		if l, ok := rt.shardOf(v).snap.Load().lookup(v); ok {
			if sampled {
				s.lookupHist.Record(time.Since(t0))
			}
			return l, true
		}
		// The router says v exists but the routed snapshot does not cover
		// it: the sweep raced a boundary republication (growth or
		// rebalance). The coordinator finishes publishing in straight-line
		// code, so a retry converges; a miss is never reported for a
		// vertex the published vertex space contains.
	}
}

// sweep captures one consistent publication round of the per-shard
// snapshots and sums their headers. A sweep that interleaves with a
// boundary republication (growth or rebalance, both rare) can catch
// shards from different layouts; it retries until the captured ranges
// tile the vertex space exactly, so labels composed from it have no gaps
// or overlaps and every edge is counted by exactly one owner.
func (s *Store) sweep() ([]*shardSnap, Summary) {
	rt := s.router.Load()
	snaps := make([]*shardSnap, len(rt.shards))
	for {
		consistent := true
		end := 0
		for i, sh := range rt.shards {
			sn := sh.snap.Load()
			snaps[i] = sn
			// The sweep must capture one publication round: ranges tiling
			// the vertex space exactly AND a single label generation —
			// tiling alone would accept a mix of pre- and post-relabel
			// segments whose boundaries happen to agree.
			if sn.lo != end || sn.pubGen != snaps[0].pubGen {
				consistent = false
			}
			end = sn.lo + len(sn.labels)
		}
		if consistent {
			break
		}
		// Mid-republication; the coordinator finishes in straight-line
		// code, so a re-sweep converges promptly.
	}
	sum := Summary{K: 1, AppliedBatches: uint64(s.applied.Load()), Shards: len(snaps)}
	for _, sn := range snaps {
		if end := sn.lo + len(sn.labels); end > sum.Vertices {
			sum.Vertices = end
		}
		if sn.k > sum.K {
			sum.K = sn.k
		}
		if sn.epoch > sum.Epoch {
			sum.Epoch = sn.epoch
		}
		sum.Version += sn.version
		sum.CutWeight += sn.cross
		sum.TotalWeight += sn.total
	}
	sum.CutRatio = cutRatio(sum.CutWeight, sum.TotalWeight)
	sum.CutByPartition = make([]int64, sum.K)
	for _, sn := range snaps {
		for l, wgt := range sn.perPart {
			if l < sum.K {
				sum.CutByPartition[l] += wgt
			}
		}
	}
	return snaps, sum
}

// Summary returns the header of the current composed view without
// composing it: one consistent sweep of the shard headers, O(shards·k),
// no label copied.
func (s *Store) Summary() Summary {
	_, sum := s.sweep()
	return sum
}

// LabelRuns returns the label map as one consistent sweep publishes it:
// each shard's label segment, in vertex order, so their concatenation is
// the map (len Summary.Vertices), with the sweep's Summary. It copies no
// label: the runs are the published segments themselves, immutable, and
// neither the Store nor callers may write to them. Callers that encode
// the map (the /v1/lookup whole-map body) read the runs in place; callers
// that want one slice call Snapshot, which composes it from these runs.
func (s *Store) LabelRuns() ([][]int32, Summary) {
	snaps, sum := s.sweep()
	runs := make([][]int32, len(snaps))
	for i, sn := range snaps {
		runs[i] = sn.labels
	}
	return runs, sum
}

// Snapshot composes LabelRuns into one immutable global view: the
// sweep's Summary plus a copy of every label. Each composition allocates
// O(n); callers that do not read labels should use Summary, callers that
// only stream them LabelRuns, and lookups Lookup, which resolves against
// a single shard.
func (s *Store) Snapshot() *Snapshot {
	runs, sum := s.LabelRuns()
	labels := make([]int32, 0, sum.Vertices)
	for _, run := range runs {
		labels = append(labels, run...)
	}
	return &Snapshot{Labels: labels, Summary: sum}
}

// Counters exposes the serving metrics.
func (s *Store) Counters() *metrics.ServeCounters { return &s.ctr }

// Metrics exposes the store's named-series registry. It is the
// process-wide home for histograms and gauges: the API layer and the
// replication follower register their series here, so one /v1/metrics
// endpoint rendered from this registry covers the whole process.
func (s *Store) Metrics() *metrics.Registry { return s.reg }

// Err returns the most recent batch-application error, if any. Rejected
// batches do not stop the store; they are counted and dropped.
func (s *Store) Err() error {
	if p := s.lastErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Submit appends a mutation batch to the log, blocking for backpressure
// while the log is full. The Store takes ownership of m; m.Tenant
// attributes the batch for admission control and fair draining (empty is
// the default tenant). Returns ErrClosed after Close, ErrDegraded after
// a storage fault, ErrReadOnly on a follower, and a QuotaError (errors.Is
// ErrQuotaExceeded) when the tenant's admission bucket is empty.
func (s *Store) Submit(m *graph.Mutation) error { return s.submit(m, false) }

// TrySubmit is the non-blocking Submit: ErrLogFull when the bounded log
// is at capacity or the tenant's backlog cap (Quota.TenantDepth) is
// reached.
func (s *Store) TrySubmit(m *graph.Mutation) error { return s.submit(m, true) }

// submit is the external write path: the writable gate, per-tenant
// admission, then the log.
func (s *Store) submit(m *graph.Mutation, try bool) error {
	if err := s.writable(); err != nil {
		return err
	}
	e := logEntry{GroupEntry: wal.GroupEntry{Mut: m}, ten: s.tenant(m.Tenant)}
	if err := s.admit(e.ten, try); err != nil {
		return err
	}
	return s.enqueue(e, try)
}

// writable gates the external write paths (Submit, TrySubmit, Resize).
func (s *Store) writable() error {
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	if s.degraded.Load() {
		return ErrDegraded
	}
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	return nil
}

// enqueue appends e to the ordered log — blocking for backpressure, or
// with try failing fast with ErrLogFull — and counts a mutation as
// submitted against the store and its tenant. No gate, no admission:
// callers that need them (submit, Resize) run them first.
func (s *Store) enqueue(e logEntry, try bool) error {
	if try {
		select {
		case s.log <- e:
		case <-s.closed:
			return ErrClosed
		default:
			return ErrLogFull
		}
	} else {
		select {
		case s.log <- e:
		case <-s.closed:
			return ErrClosed
		}
	}
	if e.Mut != nil {
		s.submitted.Add(1)
	}
	if e.ten != nil {
		e.ten.submitted.Add(1)
		e.ten.backlog.Add(1)
	}
	return nil
}

// ApplyRecord enqueues one already-journaled record at the end of the log
// — the one entry both journal replay (Open) and a replication follower
// feed records through, which is what makes a follower "recovery that
// never stops" and its state bit-identical to the leader's at the same
// journal position. It does not wait: Quiesce (or a control) after the
// last record does. A relabel record is adopted as the leader computed it,
// never recomputed. The record was admitted and acknowledged by the
// process that journaled it, so it bypasses admission control and the
// fair queues (quota state is not persisted, and reordering across
// tenants would fork the replica) and the read-only gate. A resize does
// not claim the target k: a journal may legitimately hold a same-k
// resize, which must still be journaled here — one local record per
// source record keeps follower sequence numbers aligned — and which the
// coordinator then drops as a no-op exactly as the source did.
// ErrDegraded still applies: a store with a poisoned journal must stop
// applying, not silently drop durability. Application errors
// (deterministic re-rejections of batches rejected at the source, a
// relabel that does not fit the store) do not fail the call; they stay
// observable via Err.
func (s *Store) ApplyRecord(rec wal.Record) error {
	if s.degraded.Load() {
		return ErrDegraded
	}
	var e logEntry
	switch {
	case rec.Type == wal.RecordMutation && rec.Mut != nil:
		e.Mut = rec.Mut
	case rec.Type == wal.RecordResize && rec.NewK >= 1:
		e.NewK = rec.NewK
		s.kMu.Lock()
		s.targetK = rec.NewK
		s.kMu.Unlock()
	case rec.Type == wal.RecordRelabel:
		d, err := DecodeDelta(rec.Relabel)
		if err != nil {
			return fmt.Errorf("serve: relabel record %d: %w", rec.Seq, err)
		}
		e.Relabel, e.relabel = rec.Relabel, d
	default:
		return fmt.Errorf("serve: applying malformed record %d (type %d)", rec.Seq, rec.Type)
	}
	return s.enqueue(e, false)
}

// Resize requests an elastic change to newK partitions (§III-E). The
// relabeling of the n/(k+n) fraction is applied as soon as the entry is
// processed — lookups immediately see valid [0,newK) labels — and a
// background repair run restores locality. Ordered with Submit through the
// same log. Requesting the store's target k — the current count composed
// with every resize already queued — returns ErrKUnchanged; the check is
// atomic with the coordinator, so concurrent duplicate requests cannot
// both pass it.
func (s *Store) Resize(newK int) error {
	if newK < 1 {
		return fmt.Errorf("serve: resize to k=%d", newK)
	}
	if err := s.writable(); err != nil {
		return err
	}
	s.kMu.Lock()
	if newK == s.targetK {
		s.kMu.Unlock()
		return ErrKUnchanged
	}
	prev := s.targetK
	s.targetK = newK
	s.kMu.Unlock()
	err := s.enqueue(logEntry{GroupEntry: wal.GroupEntry{NewK: newK}}, false)
	if err != nil {
		// The claim never reached the log; restore it unless another
		// Resize raced past us (then the target is theirs to keep).
		s.kMu.Lock()
		if s.targetK == newK {
			s.targetK = prev
		}
		s.kMu.Unlock()
	}
	return err
}

// Quiesce blocks until every entry submitted before the call has been
// applied and no restabilization is in flight or pending — the state in
// which the snapshot is fully stabilized. It returns the store's most
// recent batch-application error, if any. Used by tests, a follower (once
// per stream frame) and orderly shutdown; a serving leader never needs it.
func (s *Store) Quiesce() error {
	return s.control(nil)
}

// Close stops the coordinator and the shard goroutines and waits for them
// (and any in-flight restabilization, whose result is discarded) to exit.
// Lookups remain valid against the last published snapshots after Close.
func (s *Store) Close() error {
	select {
	case <-s.closed:
		<-s.done
		return nil
	default:
	}
	close(s.closed)
	<-s.done
	return nil
}

// cutRatio derives the float ratio from the integer counters; an edgeless
// graph cuts nothing.
func cutRatio(cross, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(cross) / float64(total)
}

// publishRouter swaps in a fresh immutable route table. Coordinator-only.
func (s *Store) publishRouter() {
	s.router.Store(&routeTable{
		n:      s.w.NumVertices(),
		bounds: append([]int(nil), s.bounds...),
		shards: s.shards,
	})
}

// ownedCounters composes the integer cut counters from the shard-owned
// values. Only valid under a barrier (or with the shards stopped).
func (s *Store) ownedCounters() (cross, total int64) {
	for _, sh := range s.shards {
		cross += sh.cross
		total += sh.total
	}
	return cross, total
}

// currentCut composes the cut ratio from the published shard snapshots —
// safe anytime, trailing in-flight sub-batches by at most one loop turn.
func (s *Store) currentCut() float64 {
	var cross, total int64
	for _, sh := range s.shards {
		sn := sh.snap.Load()
		cross += sn.cross
		total += sn.total
	}
	return cutRatio(cross, total)
}

// withBarrier parks every shard, folds their pending edge/weight totals
// into the shared graph, runs fn with exclusive access to all state, and
// resumes the shards. Entries forwarded before the barrier are guaranteed
// applied when fn runs (shard logs are FIFO).
func (s *Store) withBarrier(fn func()) {
	b := &barrier{ack: make(chan struct{}, len(s.shards)), resume: make(chan struct{})}
	for _, sh := range s.shards {
		sh.log <- shardEntry{barrier: b}
	}
	for range s.shards {
		<-b.ack
	}
	for _, sh := range s.shards {
		if sh.dEdges != 0 || sh.dWeight != 0 {
			s.w.AdjustTotals(sh.dEdges, sh.dWeight)
			sh.dEdges, sh.dWeight = 0, 0
		}
	}
	fn()
	close(b.resume)
}

// resolve counts n batches as resolved — committed, or rejected with err —
// against the store and, when ten is set, against its tenant. It is the one
// place a batch resolves, so the conservation of Tenants (Submitted =
// Committed + Rejected + Backlog) is kept here with one exception: the
// shards that resolve a fast-path broadcast do not know tenants, so
// handleGroup counts such a batch's tenant commit when it stages the batch
// (a staged add-only batch cannot fail), and resolves the batch here with
// ten nil.
func (s *Store) resolve(n int64, ten *tenantState, err error) {
	if err != nil {
		s.ctr.BatchesRejected.Add(n)
		rejected := err // escapes; a copy keeps the commit path allocation-free
		s.lastErr.Store(&rejected)
	} else {
		s.ctr.BatchesApplied.Add(n)
	}
	s.applied.Add(n)
	switch {
	case ten == nil:
	case err != nil:
		ten.rejected.Add(n)
	default:
		ten.committed.Add(n)
	}
}

// finishBatch resolves every batch a fast-path broadcast carried; called
// by the shard that completed its last sub-batch.
func (s *Store) finishBatch(tr *batchTracker) {
	s.ctr.EdgesAdded.Add(tr.edges)
	s.resolve(tr.batches, nil, nil)
	s.emitCounterDelta()
	select {
	case s.batchDone <- struct{}{}:
	default:
	}
}

// loop is the coordinator: sole owner of the authoritative graph topology
// and labels (jointly with the shards, exclusively under barriers). A turn
// has three stages: maintain decides the background work; drain transfers
// what is pending in the log into the per-tenant fair queues and forms a
// commit group (deficit-round-robin across tenants, capped at LogDepth —
// see nextGroup); commit (handleGroup) journals the group, then applies
// it. A turn with nothing to drain waits for the next event. When the
// degradation budget is enabled a ticker wakes the loop every sampling
// window, so overload engages and clears on time even with no traffic.
func (s *Store) loop() {
	defer close(s.done)
	var tickC <-chan time.Time
	if s.cfg.Overload.enabled() {
		t := time.NewTicker(s.cfg.Overload.Window)
		defer t.Stop()
		tickC = t.C
	}
	for {
		s.maintain(s.clock())
		tDrain := time.Now()
		s.transferLog()
		if g := s.nextGroup(); len(g) > 0 {
			s.stageHist[stageDrain].Record(time.Since(tDrain))
			s.handleGroup(g)
			clear(g) // drop batch references; the buffer outlives the turn
			continue
		}
		select {
		case e := <-s.log:
			s.route(e)
		case <-s.batchDone:
			// Fast-path batches resolved; loop to re-evaluate triggers.
		case res := <-s.restabDone:
			s.merge(res)
		case res := <-s.ckptDone:
			s.finishCheckpoint(res)
		case <-tickC:
			// Load-sampling tick; maintain samples at the top of the turn.
		case <-s.closed:
			s.drainAndExit()
			return
		}
	}
}

// drainAndExit waits out an in-flight run (discarding it), stops the
// shards, fails pending quiescers and queued controls, and drops
// unprocessed mutation entries (from the channel and the fair queues).
// A discarded run stays inflight through the final checkpoint, which
// folds it into wantRestab, so the reopened leader runs it again.
func (s *Store) drainAndExit() {
	if s.inflight {
		<-s.restabDone
		s.ctr.RestabDiscarded.Add(1)
	}
	for _, sh := range s.shards {
		close(sh.log) // coordinator is the only sender
	}
	for _, sh := range s.shards {
		<-sh.done
	}
	s.finishDurable()
	s.inflight = false
	failControl := func(e logEntry) {
		if e.ctl.reply != nil {
			e.ctl.reply <- ErrClosed
		}
	}
	for {
		select {
		case e := <-s.log:
			failControl(e)
			if e.Mut != nil && e.ten != nil {
				e.ten.backlog.Add(-1)
			}
		default:
			for _, t := range s.ring {
				for t.qlen() > 0 {
					t.pop()
					t.backlog.Add(-1)
					s.queued--
				}
			}
			for _, e := range s.controlQ {
				failControl(e)
			}
			s.controlQ = nil
			for _, q := range s.quiescers {
				q <- ErrClosed
			}
			return
		}
	}
}

// handleGroup is the turn's commit stage. First journal (journalGroup):
// every mutation, resize and relabel in the group is durably framed as one
// wal group append BEFORE any of them is applied, preserving the pre-apply
// durability boundary per entry while paying at most one fsync for the
// group. Then apply: the entries are applied strictly in submission
// order, with each maximal run of consecutive fast-path-eligible add-only
// batches merged into a single shard broadcast. Control entries run at
// their submitted positions.
func (s *Store) handleGroup(entries []logEntry) {
	ok := s.journalGroup(entries)
	tApply := time.Now()
	defer func() { s.stageHist[stageApply].Record(time.Since(tApply)) }()
	var run []*graph.Mutation
	flush := func() {
		if len(run) > 0 {
			s.broadcast(run)
			run = nil // ownership moved to the shards; never reuse
		}
	}
	for _, e := range entries {
		switch {
		case e.ctl.reply != nil && e.ctl.run == nil:
			s.quiescers = append(s.quiescers, e.ctl.reply)
		case e.ctl.reply != nil:
			flush()
			e.ctl.reply <- e.ctl.run()
		case e.NewK > 0:
			if !ok {
				continue // group journal failed; entry was never durable
			}
			flush()
			s.resize(e.NewK)
		case e.relabel != nil:
			if !ok {
				continue // never durable: the run is discarded
			}
			flush()
			s.applyRelabel(e.relabel)
		default:
			if !ok {
				continue // rejected in journalGroup
			}
			if s.stageFastPath(e.Mut, &run) {
				// Staged (or resolved inline) batches cannot fail; count the
				// tenant's commit now rather than threading tenants through
				// the shard broadcast (see resolve).
				if e.ten != nil {
					e.ten.committed.Add(1)
				}
				continue
			}
			flush()
			s.applyGlobalBatch(e.Mut, e.ten)
		}
	}
	flush()
}

// stageFastPath stages an add-only batch into the current coalesce run;
// each shard will pick out the arcs whose rows it owns with two compares
// per edge, so the coordinator's serial cost per batch is one validation
// scan plus the (per-run, not per-batch) sends. Such a batch can never
// fail validation (the checks are graph-independent), so atomicity is
// trivial, and it never relabels, so the shards apply it against frozen
// labels without synchronization — which is also why coalescing runs is
// sound: the composed effect of consecutive add-only batches is
// independent of how they are grouped. Eligibility is evaluated in
// submission order: the vertex bound only changes on the barrier path,
// which always flushes the run first.
func (s *Store) stageFastPath(m *graph.Mutation, run *[]*graph.Mutation) bool {
	if !fastPathEligible(m, s.w.NumVertices()) {
		return false
	}
	if len(m.NewEdges) == 0 { // empty batch: resolve immediately
		s.resolve(1, nil, nil)
		return true
	}
	if s.cfg.Options.AffectedOnly {
		for _, e := range m.NewEdges {
			s.affected[e.U] = struct{}{}
			s.affected[e.V] = struct{}{}
		}
	}
	*run = append(*run, m)
	return true
}

// broadcast fans one coalesced run of add-only batches out to every
// shard as a single shardEntry: one queue hop, one cut-delta fold and
// one snapshot publication per shard for the whole run. The run slice is
// handed to the shards and must not be reused by the caller.
func (s *Store) broadcast(run []*graph.Mutation) {
	var edges int64
	for _, m := range run {
		edges += int64(len(m.NewEdges))
	}
	if len(run) > 1 {
		s.ctr.ApplyCoalesces.Add(1)
		s.ctr.CoalescedBatches.Add(int64(len(run)))
	}
	tr := &batchTracker{batches: int64(len(run)), edges: edges}
	tr.remaining.Store(int32(len(s.shards)))
	e := shardEntry{muts: run, tracker: tr}
	for _, sh := range s.shards {
		sh.log <- e
	}
}

// applyGlobalBatch applies one batch under a barrier: vertex growth,
// removals, and invalid batches land here. Application is atomic
// (Mutation.ApplyEdits validates first); a rejected batch is counted,
// recorded and dropped with the graph untouched. Cut counters advance by
// the batch's O(batch) exact deltas (the CutEdits ApplyEdits returns),
// never an O(E) recompute, and appended vertices are placed from the
// maintained loads (loadsBelow).
func (s *Store) applyGlobalBatch(m *graph.Mutation, ten *tenantState) {
	s.withBarrier(func() {
		oldN := s.w.NumVertices()
		firstNew, edits, err := m.ApplyEdits(s.w)
		if err != nil {
			s.resolve(1, ten, err)
			return
		}
		grew := firstNew >= 0
		if grew {
			newN := s.w.NumVertices()
			grown := make([]int32, newN)
			copy(grown, s.labels)
			core.PlaceNewVertices(s.w, grown, oldN, s.loadsBelow(oldN, edits))
			s.labels = grown
			for _, sh := range s.shards {
				sh.labels = grown
			}
			// The appended tail extends the last shard's range; boundaries
			// move at the next periodic rebalance.
			s.shards[len(s.shards)-1].hi = newN
			s.bounds[len(s.bounds)-1] = newN
			s.ctr.VerticesAdded.Add(int64(newN - oldN))
			if s.cfg.Options.AffectedOnly {
				for v := oldN; v < newN; v++ {
					s.affected[graph.VertexID(v)] = struct{}{}
				}
			}
		}
		if s.cfg.Options.AffectedOnly {
			for _, e := range m.NewEdges {
				s.affected[e.U], s.affected[e.V] = struct{}{}, struct{}{}
			}
			for _, e := range m.RemovedEdges {
				s.affected[e.From], s.affected[e.To] = struct{}{}, struct{}{}
			}
		}
		s.ctr.EdgesAdded.Add(int64(len(m.NewEdges)))
		s.ctr.EdgesRemoved.Add(int64(len(m.RemovedEdges)))
		s.resolve(1, ten, nil)
		// The appended tail is the only label change a barrier apply makes;
		// existing labels are untouched, so the delta's runs are exact.
		var runs []LabelRun
		if grew {
			runs = []LabelRun{{Start: oldN, Labels: append([]int32(nil), s.labels[oldN:]...)}}
		}
		touched := make([]bool, len(s.shards))
		for _, ed := range edits {
			sh := s.shards[rangeIndex(s.bounds, ed.U)]
			sh.count(s.labels[ed.U], s.labels[ed.V], ed.Signed())
			touched[sh.id] = true
		}
		last := len(s.shards) - 1
		for i, sh := range s.shards {
			switch {
			case i == last && grew:
				sh.publishFresh() // segment grew: copy the new tail
			case touched[i]:
				sh.publishDelta()
			}
		}
		if grew {
			s.publishRouter()
		}
		s.emitBarrierDelta(runs, grew)
	})
}

// loadsBelow returns b(l) over the vertices below oldN in the graph a batch
// has just been applied to — exactly what scanning them would sum — in
// O(shards·k + batch): the shards' maintained loads plus the batch's own
// edits at those endpoints (an edge to an appended vertex loads its old end
// only).
func (s *Store) loadsBelow(oldN int, edits []graph.CutEdit) []int64 {
	loads := make([]int64, s.k)
	for _, sh := range s.shards {
		for l, b := range sh.load {
			loads[l] += b
		}
	}
	for _, ed := range edits {
		for _, v := range [2]graph.VertexID{ed.U, ed.V} {
			if int(v) < oldN {
				loads[s.labels[v]] += ed.Signed()
			}
		}
	}
	return loads
}

// resize performs the elastic step of §III-E under a barrier: relabel the
// n/(k+n) fraction (or collapse removed partitions) immediately and
// deterministically, then schedule a background repair run. An in-flight
// restabilization belongs to the old k-space; bumping the generation
// invalidates it.
func (s *Store) resize(newK int) {
	if newK == s.k {
		return
	}
	s.withBarrier(func() {
		seed := s.cfg.Options.Seed ^ (0x9e37*s.gen + 0xb5)
		relabeled, err := core.ElasticRelabel(s.labels, s.k, newK, seed)
		if err != nil {
			s.lastErr.Store(&err)
			return
		}
		s.k = newK
		s.gen++
		s.wantRestab = true
		s.ctr.ElasticResizes.Add(1)
		moved := 0
		for _, run := range s.relabel(relabeled) {
			moved += len(run.Labels)
		}
		s.ctr.ElasticSeedMoved.Add(int64(moved))
	})
}

// relabel adopts a full relabeling: it swaps merged in, moves the shard
// counters by the arcs of the vertices whose label changed (moveLabels,
// which counts them again past moveShare), republishes
// and returns the label runs that changed (exact, see labelDiffRuns) — the
// whole of what a replica needs to land the same relabeling. A shard whose
// segment holds a changed label publishes a fresh copy of it; the others
// publish their header in the new generation over the segment they
// already published. Coordinator-only, under a barrier, after the caller
// has set the k, gen and epoch the new labels live in.
func (s *Store) relabel(merged []int32) []LabelRun {
	runs := labelDiffRuns(s.labels, merged)
	tPublish := time.Now()
	old := s.labels
	s.labels = merged
	changed := s.moveLabels(old, runs)
	s.pubGen++ // new label generation: a sweep refuses to mix rounds
	for i, sh := range s.shards {
		sh.labels, sh.k, sh.epoch, sh.pubGen = s.labels, s.k, s.epoch, s.pubGen
		if changed[i] {
			sh.publishFresh()
		} else {
			sh.publishDelta()
		}
	}
	s.emitBarrierDelta(runs, false)
	s.stageHist[stagePublish].Record(time.Since(tPublish))
	return runs
}

// moveLabels moves the shard counters from the labels old to s.labels, in
// O(arcs of the vertices runs names): every edge at a changed vertex takes
// its weight away at its old labels and adds it at its new ones, once,
// under the shard that owns its lower endpoint (an edge between two
// changed vertices is moved from the lower one). The counters span
// max(old k, s.k) labels while they move and s.k after; a label the new k
// drops holds no weight by then. Moving an arc costs a few times what
// counting one does, more when the changed vertices are scattered
// (BenchmarkBarrierHold: moving a random 10 % of the labels holds the
// barrier about 70 % as long as counting every shard, and moving 20 %
// holds it longer), so when the changed vertices hold more than
// 1/moveShare of the arcs every shard is counted from the graph instead —
// a resize's relabel, a near-total repair merge. It reports which shards' segments
// hold a changed label. Coordinator-only, under a barrier.
func (s *Store) moveLabels(old []int32, runs []LabelRun) []bool {
	changed := make([]bool, len(s.shards))
	var arcs int64
	for _, run := range runs {
		end := run.Start + len(run.Labels)
		for i := rangeIndex(s.bounds, graph.VertexID(run.Start)); i <= rangeIndex(s.bounds, graph.VertexID(end-1)); i++ {
			changed[i] = true
		}
		for v := run.Start; v < end; v++ {
			arcs += int64(s.w.Degree(graph.VertexID(v)))
		}
	}
	if moveShare*arcs > 2*s.w.NumEdges() {
		for _, sh := range s.shards {
			sh.cross, sh.total, sh.perPart, sh.load = metrics.CutWeightsRange(s.w, s.labels, s.k, sh.lo, sh.hi)
		}
		return changed
	}
	for _, sh := range s.shards {
		if grow := s.k - len(sh.load); grow > 0 {
			sh.perPart = append(sh.perPart, make([]int64, grow)...)
			sh.load = append(sh.load, make([]int64, grow)...)
		}
	}
	for _, run := range runs {
		for i := range run.Labels {
			v := graph.VertexID(run.Start + i)
			for _, a := range s.w.Neighbors(v) {
				x := a.To
				if x < v && old[x] != s.labels[x] {
					continue // moved from x
				}
				owner := s.shards[rangeIndex(s.bounds, min(v, x))]
				owner.count(old[v], old[x], -int64(a.Weight))
				owner.count(s.labels[v], s.labels[x], int64(a.Weight))
			}
		}
	}
	for _, sh := range s.shards {
		sh.perPart, sh.load = sh.perPart[:s.k], sh.load[:s.k]
	}
	return changed
}

// maintain is the turn's first stage, the one place background work is
// decided, in this order: sample the load (updateLoad); every
// reconcileEvery resolved batches, rebalance the shard boundaries; start a
// background checkpoint when one is due; start a restabilization when the
// trigger fires; release the quiescers. Under overload the rebalance and
// the restabilization are deferred — the degradation budget trades cut
// quality for lookup latency — and run at the first turn after the load
// clears. When quiescers wait on an idle store (no log backlog, no run in
// flight, no checkpoint pending), one empty barrier first settles the
// shard logs, so the passes read the settled applied count; the
// quiescers are released only if none of the passes started anything and
// no restabilization is due. (Waiting out the checkpoint keeps quiesced
// histories deterministic in their durability side effects — which
// checkpoints exist — not just their labels.)
func (s *Store) maintain(now time.Time) {
	s.updateLoad(now)
	settle := len(s.quiescers) > 0 && !s.inflight && !(s.d != nil && s.d.pending) &&
		len(s.log) == 0 && s.queued == 0 && len(s.controlQ) == 0
	if settle {
		s.withBarrier(func() {})
	}
	if s.applied.Load()-s.lastReconcile >= reconcileEvery && !s.deferred(&s.reconcileDeferred, &s.ctr.DeferredReconciles) {
		s.rebalance()
		s.lastReconcile = s.applied.Load()
	}
	s.maybeCheckpoint()
	// The degradation trigger. Only a writable, journaling store
	// restabilizes: a follower (read-only) and a store still replaying its
	// journal (Open) adopt the relabel records instead.
	restab := !s.inflight && !s.readOnly.Load() && (s.d == nil || s.d.active) &&
		(s.wantRestab || s.applied.Load() > s.appliedAtRestab &&
			s.currentCut() > s.baseline*s.cfg.DegradeFactor+s.cfg.DegradeSlack)
	if restab && !s.deferred(&s.restabDeferred, &s.ctr.DeferredRestabs) {
		s.restabilize()
	}
	if !settle || restab || s.d != nil && s.d.pending {
		return
	}
	err := s.Err()
	for _, q := range s.quiescers {
		q <- err
	}
	s.quiescers = nil
}

// deferred reports whether overload defers a due background pass, and
// counts the deferral in ctr once per overload episode: episode is the
// pass's flag, which updateLoad clears when the episode ends.
func (s *Store) deferred(episode *bool, ctr *atomic.Int64) bool {
	if !s.overloaded.Load() {
		return false
	}
	if !*episode {
		*episode = true
		ctr.Add(1)
	}
	return true
}

// restabilize starts a background incremental run. The clone is taken
// under a barrier so the run sees a consistent merged graph; the shards
// then keep ingesting and serving while the run adapts the clone.
func (s *Store) restabilize() {
	var clone *graph.Weighted
	var prev []int32
	var affected []graph.VertexID
	s.withBarrier(func() {
		s.wantRestab = false
		s.appliedAtRestab = s.applied.Load()
		clone = s.w.Clone()
		prev = append([]int32(nil), s.labels...)
		if s.cfg.Options.AffectedOnly {
			affected = make([]graph.VertexID, 0, len(s.affected))
			for v := range s.affected {
				affected = append(affected, v)
			}
		}
		s.affected = make(map[graph.VertexID]struct{})
	})

	opts := s.cfg.Options
	opts.K = s.k
	// Epoch-derived seed: deterministic across runs of the same entry
	// sequence, distinct across restabilizations.
	opts.Seed = s.cfg.Options.Seed ^ (0xa5a5*(s.epoch+1) + 0x51*s.gen)
	gen := s.gen
	s.inflight = true
	go func() {
		res := restabResult{gen: gen}
		if p, err := core.NewPartitioner(opts); err != nil {
			res.err = err
		} else if r, err := p.Adapt(clone, prev, affected); err != nil {
			res.err = err
		} else {
			res.labels = r.Labels
		}
		s.restabDone <- res
	}()
}

// merge lands a completed restabilization as a relabel entry: the label
// runs the run changed over the base vertices it saw (vertices appended
// since keep their seeded labels), journaled and then applied at this
// position through handleGroup — the path a follower and replay take.
// Runs from a previous resize generation are discarded — their labels live
// in the wrong k-space — and a discarded run writes nothing.
func (s *Store) merge(res restabResult) {
	s.inflight = false
	if res.err != nil {
		s.lastErr.Store(&res.err)
		s.ctr.RestabDiscarded.Add(1)
		return
	}
	if res.gen != s.gen {
		s.ctr.RestabDiscarded.Add(1)
		return
	}
	d := &Delta{Epoch: s.epoch + 1, Gen: s.gen, K: s.k, N: len(s.labels),
		Runs: labelDiffRuns(s.labels[:len(res.labels)], res.labels)}
	s.handleGroup([]logEntry{{GroupEntry: wal.GroupEntry{Relabel: EncodeDelta(d)}, relabel: d}})
}

// applyRelabel adopts a relabel entry under one barrier: it counts the
// migration volume, advances the epoch, swaps the labels in and resets the
// degradation baseline. A journaled record is input from outside the
// process, so one that does not fit the store — not the next epoch, another
// generation, k or vertex count, a run outside the labels or a label
// outside [0,k) — is refused: the error goes to Err and nothing changes.
func (s *Store) applyRelabel(d *Delta) {
	s.withBarrier(func() {
		merged, err := d.Apply(slices.Clone(s.labels))
		if d.Epoch != s.epoch+1 || d.Gen != s.gen || d.K != s.k || d.N != len(s.labels) {
			err = fmt.Errorf("epoch %d gen %d k=%d n=%d onto epoch %d gen %d k=%d n=%d",
				d.Epoch, d.Gen, d.K, d.N, s.epoch, s.gen, s.k, len(s.labels))
		} else if err == nil {
			err = metrics.ValidateLabels(merged, s.k)
		}
		if err != nil {
			err = fmt.Errorf("serve: refusing relabel: %w", err)
			s.lastErr.Store(&err)
			return
		}
		verts, weight := cluster.MigrationVolume(s.w, s.labels, merged)
		s.ctr.MigratedVertices.Add(verts)
		s.ctr.MigratedWeight.Add(weight)
		s.epoch++
		s.wantRestab = false
		s.ctr.Restabilizations.Add(1)
		s.relabel(merged)
		s.baseline = cutRatio(s.ownedCounters())
	})
}

// rebalance is the periodic pass maintain runs every reconcileEvery
// resolved batches, and nothing else: the incremental counters are exact
// (reconcileNow is the check, run at Open and in the tests), so the
// serving loop never recounts them. Under a barrier it recomputes the
// shard boundaries by weighted degree (cluster.BalancedRanges) and, when
// one moved, adopts them (moveBounds).
func (s *Store) rebalance() {
	if s.w.NumVertices() < len(s.shards) {
		// A zero-vertex store has one shard with an empty range; there is
		// nothing to rebalance (and BalancedRanges requires shards <=
		// vertices).
		return
	}
	s.withBarrier(func() {
		bounds := cluster.BalancedRanges(s.w, len(s.shards))
		if slices.Equal(bounds, s.bounds) {
			return
		}
		s.ctr.ShardRebalances.Add(1)
		s.moveBounds(bounds)
	})
}

// moveBounds adopts new shard bounds: each row that changes owner takes
// its owned arcs' share of the counters from its old shard to its new
// one, in O(arcs of the moved rows), and only the shards whose range
// moved publish — labels are unchanged, so a sweep that races the move
// sees ranges that do not tile and retries. Then the route table, and the
// barrier delta carrying the bounds. Coordinator-only, under a barrier.
func (s *Store) moveBounds(bounds []int) {
	// The rows that change owner are those between a boundary's old and
	// new position; both layouts are sorted, so these spans are too, and
	// next skips the part of a span an earlier one already covered.
	next := 0
	for i := 1; i < len(bounds)-1; i++ {
		lo, hi := min(s.bounds[i], bounds[i]), max(s.bounds[i], bounds[i])
		for v := graph.VertexID(max(lo, next)); int(v) < hi; v++ {
			from, to := s.shards[rangeIndex(s.bounds, v)], s.shards[rangeIndex(bounds, v)]
			if from != to {
				from.countRow(v, -1)
				to.countRow(v, 1)
			}
		}
		next = max(next, hi)
	}
	for i, sh := range s.shards {
		if sh.lo != bounds[i] || sh.hi != bounds[i+1] {
			sh.lo, sh.hi = bounds[i], bounds[i+1]
			sh.publishFresh()
		}
	}
	copy(s.bounds, bounds)
	s.publishRouter()
	s.emitBarrierDelta(nil, true)
}
