// Package serve is the live partition-maintenance service: the
// production-shaped layer that turns Spinner's batch algorithms into a
// long-running system answering vertex→partition lookups under heavy
// concurrent traffic while the partitioning evolves underneath — the
// paper's core claim (§III-D/E) that partitions are *maintained*, not
// recomputed.
//
// # Architecture
//
// A Store has one writer, the coordinator goroutine. It owns the graph,
// the labels and the incremental cut counters, applies every batch
// itself, and publishes one immutable snapshot after each change. Three
// planes:
//
//   - Read plane: a lookup is one atomic load of the published snapshot
//     and a bounds check. No locks, no contention with the writer; a
//     published snapshot is never mutated, so readers hold it as long as
//     they like. Summary reads the snapshot's header (vertex count, k,
//     version, cut) and copies no label; Snapshot hands out the published
//     label slice itself (the /v1/lookup whole-map body is encoded from
//     it). A published label array is never written: a relabel or a
//     resize swaps in a new array, and growth writes only past the
//     published length, so no publication copies labels.
//   - Write plane: graph.Mutation batches enter a bounded mutation log (a
//     buffered channel). Submit blocks for backpressure, TrySubmit fails
//     fast with ErrLogFull. Each coordinator turn has three stages:
//     maintain (the maintenance plane below); drain, which forms
//     everything pending in the log into one commit group; and commit,
//     which journals the group as one wal group (one write + one fsync on
//     durable stores — group commit), then applies it in order. One
//     function applies every batch (applyBatch): graph.Mutation.ApplyEdits
//     validates the batch and applies it atomically, returning its exact
//     cut edits, which are folded into the counters — O(batch), never a
//     scan of the graph — and appended vertices are placed on the least
//     loaded partitions (§III-D) from the maintained loads. Each maximal
//     run of consecutive batches that append no vertex and remove no edge
//     — edge additions, the high-rate churn case — shares one publication
//     (coalesced apply: one snapshot and one counter-only delta for the
//     whole run); a growth or removal batch publishes its own, and a
//     rejected batch, which changes nothing, publishes none. Anything else
//     that must happen at a position in that order (a quiesce, recovery's
//     journal attach and exact check) rides the same log as a control: a
//     function the coordinator runs there, whose error is the reply.
//   - Maintenance plane: one pass at the top of every turn (maintain)
//     decides all background work — load sampling, checkpoints,
//     restabilization, releasing quiescers — and is where the
//     degradation budget defers it under overload. The coordinator
//     tracks the cut ratio cross/total from its integer counters — O(1)
//     per check instead of the seed's exact O(E) recompute per swap.
//     Past the degradation threshold it clones the graph and
//     restabilizes in a background goroutine (§III-D) while the
//     coordinator keeps ingesting and serving. A completed run becomes a
//     relabel entry: the label runs it changed, journaled
//     (wal.RecordRelabel) and then applied at that log position, by the
//     same code a follower and journal replay adopt it with
//     (applyRelabel). Elastic k→k′ (§III-E) relabels the n/(k+n)
//     fraction at once and repairs in the background; the coordinator
//     computes that relabel at the resize's log position and journals it
//     the same way, in-flight runs from the old k-space are discarded, and
//     the journal, not a seed, says what the labels are. Only a writable,
//     journaling store restabilizes or resizes; a follower or a replaying
//     store never computes a relabeling, it adopts the journaled one.
//     Both land through one function, relabel: it swaps the new label
//     array in, moves the counters by the arcs of the vertices whose
//     label changed (or, past moveShare, counts them again), publishes
//     and returns the label runs that changed. Every publication, of a
//     batch, a run, a relabel or the exact check's repair, is one call
//     of publish: it swaps the snapshot and hands the change feed its
//     delta.
//
// Counters: the coordinator keeps one set of integer cut counters
// (cross, total, perPart) and load, each partition's b(l) (Eq. 6): every
// edge adds its weight at both endpoints' labels. All four move through
// one update (count) at two places: a batch folding its cut edits
// (applyBatch); and a relabeling event (moveLabels), where every edge at a
// changed vertex leaves its old labels for its new ones, once — O(arcs of
// the changed vertices). The counters are counted from the
// graph (metrics.CutWeightsRange) at construction, for a relabel too
// large to move (moveShare) and by reconcileNow, the exact check, which
// compares all four with an exact recount (and repairs them on a
// mismatch); Open runs it after replay and the tests after their
// histories. The loads are why a batch that appends vertices never reads
// the graph: the paper's implementation has b(l) to hand as aggregators,
// and applyBatch takes the maintained loads (O(k)), adds the
// batch's own edits at their pre-existing endpoints and passes that to
// core.PlaceNewVertices. Loads are sums of int32 weights, hence exact:
// equal to what a scan of the graph (core.SeedNewVertices) sums, whatever
// the order the edges arrived in. Placement is a function of the loads
// alone, so leader, follower and replay place every vertex alike, and
// where the scan placed it. Nothing new is checkpointed; counters are
// recomputed at open.
//
// Determinism: with a fixed Options.Seed and Options.NumWorkers, a
// quiesced submit/await sequence yields identical labels regardless of
// wall-clock timing: a batch relabels no existing vertex, every relabeling
// event runs on the coordinator in log order, and restabilization seeds
// derive from the run epoch. The labels depend on NumWorkers, never on
// the host: restabilization runs core with it, core's §IV-A4 load views
// are one per worker, and its default is the same 8 everywhere. (Unquiesced
// sequences interleave merges with ingest nondeterministically, as any
// live system does.) Whatever the timing, the journal records where each
// merge landed, so a follower or a recovery that applies the journal
// reaches the leader's labels exactly.
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

// moveShare bounds the relabel whose counters move (moveLabels): one whose
// changed vertices hold more than 1/moveShare of the arcs counts them from
// the graph instead.
const moveShare = 8

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

// Summary is the header of a Snapshot: everything it says about the
// partitioning except the labels themselves. It copies no label, so
// lookups and stats that want a count, k, the version or the cut read
// Summary.
type Summary struct {
	// Vertices is the vertex count at publication (len(Snapshot.Labels)).
	Vertices int
	// K is the partition count the view's labels live in.
	K int
	// Version counts snapshot publications (monotonically increasing).
	Version uint64
	// AppliedBatches counts mutation batches resolved (applied or
	// rejected) at the time the view was read.
	AppliedBatches uint64
	// Epoch counts restabilization merges reflected in this view.
	Epoch uint64
	// CutRatio is CutWeight/TotalWeight: the fraction of edge weight
	// crossing partitions (1−φ), tracked incrementally in integers.
	CutRatio float64
	// CutWeight and TotalWeight are the integer cut counters the ratio
	// derives from; CutByPartition is each partition's external weight
	// (a cut edge contributes its weight to both endpoints' partitions).
	// CutByPartition is shared with the store: read-only.
	CutWeight      int64
	TotalWeight    int64
	CutByPartition []int64
}

// Snapshot is an immutable view of the partitioning: the labels one
// publication holds and its Summary.
type Snapshot struct {
	// Labels maps vertex → partition; len(Labels) == Vertices. The slice
	// is the published array itself: neither the Store nor callers may
	// write to it.
	Labels []int32
	Summary
}

// logEntry is one unit of maintenance work, ordered through the log: a
// journaled record — a mutation batch (Mut) or a label change's runs
// (Relabel), held as the wal.GroupEntry journalGroup appends — a resize
// request (newK > 0), which the coordinator turns into a relabel at its
// position, or a control; the last two have a zero GroupEntry.
type logEntry struct {
	wal.GroupEntry
	relabel *Delta  // Relabel decoded, for applyRelabel
	newK    int     // a resize request
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
	gen             uint64  // bumped by every resize; stamps in-flight runs
	epoch           uint64  // completed restabilization merges
	baseline        float64 // cut ratio achieved by the last stabilization
	wantRestab      bool    // forced run requested (elastic repair)
	appliedAtRestab int64   // batches resolved when the last run started
}

// cutCounters are the integer counters the coordinator moves with every
// change (count): the cut weight, the total weight, each partition's
// external weight, and each partition's load b(l).
type cutCounters struct {
	cross, total  int64
	perPart, load []int64
}

// countCut counts the counters of labels over w from scratch.
func countCut(w *graph.Weighted, labels []int32, k int) cutCounters {
	var c cutCounters
	c.cross, c.total, c.perPart, c.load = metrics.CutWeightsRange(w, labels, k, 0, w.NumVertices())
	return c
}

// count adds an edge of weight wgt between labels lu and lv to the
// counters; a negative wgt takes one away. It is the one update all four
// counters get: as an edge lands or leaves (applyBatch) and as a label
// at its end changes (moveLabels).
func (c *cutCounters) count(lu, lv int32, wgt int64) {
	c.total += wgt
	c.load[lu] += wgt
	c.load[lv] += wgt
	if lu != lv {
		c.cross += wgt
		c.perPart[lu] += wgt
		c.perPart[lv] += wgt
	}
}

// Store is the live partition-maintenance service. See the package comment
// for the architecture. All exported methods are safe for concurrent use.
type Store struct {
	cfg    Config
	ctr    metrics.ServeCounters
	view   atomic.Pointer[Snapshot] // the published snapshot; AppliedBatches unset
	deltas *deltaHub                // change-feed ring; internally synchronized

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

	log    chan logEntry
	closed chan struct{} // closes when Close is called
	done   chan struct{} // closes when the coordinator exits

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

	// Coordinator state: the coordinator is its one writer.
	coordState
	cutCounters
	w          *graph.Weighted
	labels     []int32 // the published labels: never written below len(labels)
	version    uint64  // publications so far
	affected   map[graph.VertexID]struct{}
	inflight   bool
	restabDone chan restabResult
	ckptDone   chan ckptResult // capacity 1; background checkpointer reply
	quiescers  []chan error
	d          *durable // nil on in-memory stores

	// Fair-drain state (coordinator-only).
	ring           []*tenantState  // tenants with a registered queue, first-seen order
	cursor         int             // DRR rotation point in ring
	controlQ       []logEntry      // routed control entries awaiting the next group
	queued         int             // mutation entries parked in tenant queues
	arrival        uint64          // monotonic arrival stamp
	groupBuf       []logEntry      // group-formation buffer, reused across turns
	runBuf         []logEntry      // the run of batches handleGroup gathers, reused across turns
	editBuf        []graph.CutEdit // applyBatch's cut edits, reused across batches
	loadAt         time.Time       // load-sampling state (updateLoad)
	loadLookups    int64
	loadApplied    int64
	restabDeferred bool // current overload episode already counted a deferred restab
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
// counters, k = Options.K), with the degradation baseline taken from the
// labels as given. cfg must already be normalized.
func newFresh(w *graph.Weighted, labels []int32, cfg Config) (*Store, error) {
	s, err := newStore(&ckptState{
		coordState: coordState{k: cfg.Options.K},
		labels:     labels,
		w:          w,
	}, cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.baseline = cutRatio(s.cross, s.total)
	return s, nil
}

// newStore rebuilds the coordinator state st describes — a decoded
// checkpoint (Open) or a fresh partitioning (newFresh) — without starting
// the coordinator, so the durable constructors can checkpoint or replay
// while they still own the state exclusively. cfg must already be
// normalized. The cut counters are always recomputed exactly.
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
	s := &Store{
		cfg:        cfg,
		log:        make(chan logEntry, cfg.LogDepth),
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
	s.deltas = newDeltaHub(cfg.DeltaRing, &s.ctr.DeltaEncodes)
	s.initMetrics()
	for _, v := range st.affected {
		s.affected[v] = struct{}{}
	}
	s.applied.Store(st.applied)
	s.submitted.Store(st.applied)
	// The one full count outside the exact check; afterwards the counters
	// only move (count).
	s.cutCounters = countCut(s.w, s.labels, s.k)
	// Every store starts its change feed with a full-state baseline. Delta
	// sequences are per-process: watch consumers holding sequences from a
	// previous incarnation are told to resync.
	var runs []LabelRun
	if n > 0 {
		runs = []LabelRun{{Start: 0, Labels: s.labels[:n:n]}}
	}
	s.publish(runs, false)
	return s, nil
}

// start launches the coordinator goroutine.
func (s *Store) start() { go s.loop() }

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

// Lookup returns the partition of v in the published snapshot: one atomic
// load and a bounds check. The second return is false when v is not
// (yet) visible: either never created, or appended by a batch whose
// snapshot has not been published.
func (s *Store) Lookup(v graph.VertexID) (int32, bool) {
	l, _, ok := s.LookupIn(v)
	return l, ok
}

// LookupIn is Lookup that also returns the snapshot the label was read
// from, so a caller's version and k agree with the label. The snapshot is
// the published one, shared and read-only; its AppliedBatches is 0.
func (s *Store) LookupIn(v graph.VertexID) (int32, *Snapshot, bool) {
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
	l, ok, view := int32(-1), false, s.view.Load()
	if v >= 0 && int(v) < len(view.Labels) {
		l, ok = view.Labels[v], true
	} else {
		s.ctr.LookupMisses.Add(1)
	}
	if sampled {
		s.lookupHist.Record(time.Since(t0))
	}
	return l, view, ok
}

// Summary returns the header of the published snapshot: no label copied.
func (s *Store) Summary() Summary {
	sum := s.view.Load().Summary
	sum.AppliedBatches = uint64(s.applied.Load())
	return sum
}

// Snapshot returns the published snapshot. It copies no label: Labels is
// the published array, immutable, and neither the Store nor callers may
// write to it.
func (s *Store) Snapshot() *Snapshot {
	snap := *s.view.Load()
	snap.AppliedBatches = uint64(s.applied.Load())
	return &snap
}

// publish makes one publication of the coordinator state: it swaps in a
// snapshot — the labels as they stand (a published array is never
// written below its length, so nothing is copied but the per-partition
// cut), k, epoch, a new version and the counters — and hands the hub its
// delta: the label runs that changed with k and the vertex count, or,
// with counterOnly, the counters alone (a run of batches, which relabels
// nothing, and the exact check's repair). Coordinator-only.
func (s *Store) publish(runs []LabelRun, counterOnly bool) {
	s.version++
	n := len(s.labels)
	s.view.Store(&Snapshot{Labels: s.labels[:n:n], Summary: Summary{
		Vertices: n, K: s.k, Version: s.version, Epoch: s.epoch,
		CutRatio: cutRatio(s.cross, s.total), CutWeight: s.cross, TotalWeight: s.total,
		CutByPartition: slices.Clone(s.perPart),
	}})
	s.ctr.SnapshotSwaps.Add(1)
	d := &Delta{Epoch: s.epoch, Cross: s.cross, Total: s.total}
	if !counterOnly {
		d.Gen, d.K, d.N, d.Runs = s.gen, s.k, n, runs
	}
	s.deltas.publish(d)
	s.ctr.DeltasPublished.Add(1)
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
// tenants would fork the replica) and the read-only gate. ErrDegraded
// still applies: a store with a poisoned journal must stop applying, not
// silently drop durability. Application errors
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

// Resize requests an elastic change to newK partitions (§III-E), 1 ≤ newK
// ≤ core.MaxK. The relabeling of the n/(k+n) fraction is journaled and
// applied as soon as the entry is processed — lookups immediately see
// valid [0,newK) labels — and a background repair run restores locality.
// Ordered with Submit through the same log. Requesting the store's target
// k — the current count composed with every resize already queued —
// returns ErrKUnchanged; the check is atomic with the coordinator, so
// concurrent duplicate requests cannot both pass it.
func (s *Store) Resize(newK int) error {
	if newK < 1 || newK > core.MaxK {
		return fmt.Errorf("serve: resize to k=%d, want 1..%d", newK, core.MaxK)
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
	err := s.enqueue(logEntry{newK: newK}, false)
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

// Close stops the coordinator and waits for it (and any in-flight
// restabilization, whose result is discarded) to exit. Lookups remain
// valid against the last published snapshot after Close.
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

// resolve counts n batches as resolved — committed, or rejected with err —
// against the store and, when ten is set, against its tenant. It is the one
// place a batch resolves, so the conservation of Tenants (Submitted =
// Committed + Rejected + Backlog) is kept here.
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

// loop is the coordinator: sole owner of the graph, the labels and the
// counters. A turn has three stages: maintain decides the background work;
// drain transfers what is pending in the log into the per-tenant fair
// queues and forms a commit group (deficit-round-robin across tenants,
// capped at LogDepth — see nextGroup); commit (handleGroup) journals the
// group, then applies it. A turn with nothing to drain waits for the next
// event; a turn that applied a group takes a finished background run or
// checkpoint if one is ready, so a coordinator that never runs dry still
// merges runs and finishes checkpoints. When the degradation budget is
// enabled a ticker wakes the loop every sampling window, so overload
// engages and clears on time even with no traffic.
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
			select {
			case res := <-s.restabDone:
				s.merge(res)
			case res := <-s.ckptDone:
				s.finishCheckpoint(res)
			default:
			}
			continue
		}
		select {
		case e := <-s.log:
			s.route(e)
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

// drainAndExit waits out an in-flight run (discarding it), fails pending
// quiescers and queued controls, and drops unprocessed mutation entries
// (from the channel and the fair queues). A discarded run stays inflight
// through the final checkpoint, which folds it into wantRestab, so the
// reopened leader runs it again.
func (s *Store) drainAndExit() {
	if s.inflight {
		<-s.restabDone
		s.ctr.RestabDiscarded.Add(1)
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

// handleGroup is the turn's commit stage. A resize request splits its
// group: the entries before it commit, then its relabel as a group of one
// (resize), then the entries after it — a group is journaled whole before
// any of it applies, and a resize's relabel is computed from the labels at
// its position.
func (s *Store) handleGroup(entries []logEntry) {
	for {
		i := slices.IndexFunc(entries, func(e logEntry) bool { return e.newK > 0 })
		if i < 0 {
			break
		}
		if i > 0 {
			s.commit(entries[:i])
		}
		s.resize(entries[i].newK)
		entries = entries[i+1:]
	}
	if len(entries) > 0 {
		s.commit(entries)
	}
}

// commit journals and applies a group that holds no resize request. First
// journal (journalGroup): every mutation and relabel in the group is
// durably framed as one wal group append BEFORE any of them is applied,
// preserving the pre-apply durability boundary per entry while paying at
// most one fsync for the group. Then apply: the entries are applied
// strictly in submission order, every batch by applyBatch. A maximal run
// of consecutive batches that append no vertex and remove no edge shares
// one publication — one snapshot and one counter-only delta, after which
// its batches resolve; a growth or removal batch, a rejected batch, a
// control and a relabel each flush the run first. Such a run never
// relabels, so its composed effect is independent of how the pipeline
// grouped it. An empty batch resolves where it stands and leaves the run
// unbroken. Control entries run at their submitted positions.
func (s *Store) commit(entries []logEntry) {
	ok := s.journalGroup(entries)
	tApply := time.Now()
	defer func() { s.stageHist[stageApply].Record(time.Since(tApply)) }()
	run := s.runBuf[:0]
	flush := func() {
		if len(run) == 0 {
			return
		}
		if len(run) > 1 {
			s.ctr.ApplyCoalesces.Add(1)
			s.ctr.CoalescedBatches.Add(int64(len(run)))
		}
		s.publish(nil, true)
		for _, e := range run {
			s.resolve(1, e.ten, nil)
		}
		clear(run) // drop batch references; the buffer outlives the turn
		run = run[:0]
	}
	for _, e := range entries {
		switch {
		case e.ctl.reply != nil && e.ctl.run == nil:
			s.quiescers = append(s.quiescers, e.ctl.reply)
		case e.ctl.reply != nil:
			flush()
			e.ctl.reply <- e.ctl.run()
		case !ok:
			// The group journal failed: the entry was never durable, and a
			// batch was rejected in journalGroup.
		case e.relabel != nil:
			flush()
			s.applyRelabel(e.relabel)
		default:
			m := e.Mut
			joins := m.NewVertices == 0 && len(m.RemovedEdges) == 0
			if !joins {
				flush()
			}
			runs, err := s.applyBatch(m)
			switch {
			case err != nil:
				flush() // a rejected batch left the graph as the run left it
				s.resolve(1, e.ten, err)
			case !joins:
				s.publish(runs, false)
				s.resolve(1, e.ten, nil)
			case len(m.NewEdges) == 0:
				s.resolve(1, e.ten, nil)
			default:
				run = append(run, e)
			}
		}
	}
	flush()
	s.runBuf = run
}

// applyBatch applies one batch through Mutation.ApplyEdits, which
// validates it against the graph and applies it atomically: a rejected
// batch returns its error with the graph untouched. The batch's cut edits,
// appended to a buffer the coordinator reuses, move the counters (count) —
// O(batch), never a scan of the graph — and
// appended vertices are placed from the maintained loads (loadsBelow),
// written past the published labels; their run is returned, the one
// label change a batch makes. Publishing and resolving are handleGroup's.
func (s *Store) applyBatch(m *graph.Mutation) ([]LabelRun, error) {
	oldN := s.w.NumVertices()
	firstNew, edits, err := m.ApplyEdits(s.w, s.editBuf[:0])
	s.editBuf = edits
	if err != nil {
		return nil, err
	}
	var runs []LabelRun
	if firstNew >= 0 {
		newN := s.w.NumVertices()
		loads := s.loadsBelow(oldN, edits)
		s.labels = slices.Grow(s.labels, newN-oldN)[:newN]
		core.PlaceNewVertices(s.w, s.labels, oldN, loads)
		runs = []LabelRun{{Start: oldN, Labels: s.labels[oldN:newN:newN]}}
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
	for _, ed := range edits {
		s.count(s.labels[ed.U], s.labels[ed.V], ed.Signed())
	}
	s.ctr.EdgesAdded.Add(int64(len(m.NewEdges)))
	s.ctr.EdgesRemoved.Add(int64(len(m.RemovedEdges)))
	return runs, nil
}

// loadsBelow returns b(l) over the vertices below oldN in the graph a batch
// has just been applied to — exactly what scanning them would sum — in
// O(k + batch): the maintained loads plus the batch's own edits at those
// endpoints (an edge to an appended vertex loads its old end only).
func (s *Store) loadsBelow(oldN int, edits []graph.CutEdit) []int64 {
	loads := slices.Clone(s.load)
	for _, ed := range edits {
		for _, v := range [2]graph.VertexID{ed.U, ed.V} {
			if int(v) < oldN {
				loads[s.labels[v]] += ed.Signed()
			}
		}
	}
	return loads
}

// resize computes the elastic step of §III-E at the request's log
// position — the n/(k+n) fraction relabeled, or removed partitions
// collapsed — and commits it as a relabel entry of the next generation in
// a group of one: journaled, then applied by applyRelabel, the path a
// follower and replay take. A request for the current k changes nothing.
func (s *Store) resize(newK int) {
	if newK == s.k {
		return
	}
	seed := s.cfg.Options.Seed ^ (0x9e37*s.gen + 0xb5)
	relabeled, err := core.ElasticRelabel(s.labels, s.k, newK, seed)
	if err != nil {
		s.lastErr.Store(&err)
		return
	}
	s.commit([]logEntry{relabelEntry(&Delta{Epoch: s.epoch, Gen: s.gen + 1, K: newK, N: len(s.labels),
		Runs: labelDiffRuns(s.labels, relabeled)})})
}

// relabelEntry is the log entry of a relabel the coordinator computed.
func relabelEntry(d *Delta) logEntry {
	return logEntry{GroupEntry: wal.GroupEntry{Relabel: EncodeDelta(d)}, relabel: d}
}

// relabel adopts a full relabeling: it swaps merged in as the published
// array (merged must be a new array, never written afterwards), moves the
// counters by the arcs of the vertices whose label changed (moveLabels,
// which counts them again past moveShare), publishes and returns the
// label runs that changed (exact, see labelDiffRuns) — the whole of what a
// replica needs to land the same relabeling. Coordinator-only, after the
// caller has set the k, gen and epoch the new labels live in.
func (s *Store) relabel(merged []int32) []LabelRun {
	runs := labelDiffRuns(s.labels, merged)
	tPublish := time.Now()
	old := s.labels
	s.labels = merged
	s.moveLabels(old, runs)
	s.publish(runs, false)
	s.stageHist[stagePublish].Record(time.Since(tPublish))
	return runs
}

// moveLabels moves the counters from the labels old to s.labels, in
// O(arcs of the vertices runs names): every edge at a changed vertex takes
// its weight away at its old labels and adds it at its new ones, once (an
// edge between two changed vertices is moved from the lower one). The
// counters span max(old k, s.k) labels while they move and s.k after; a
// label the new k drops holds no weight by then. Moving an arc costs a
// few times what counting one does, more when the changed vertices are
// scattered (BenchmarkRelabel), so when the changed vertices hold more
// than 1/moveShare of the arcs the counters are counted from the graph
// instead — a resize's relabel, a near-total repair merge.
// Coordinator-only.
func (s *Store) moveLabels(old []int32, runs []LabelRun) {
	var arcs int64
	for _, run := range runs {
		for v := run.Start; v < run.Start+len(run.Labels); v++ {
			arcs += int64(s.w.Degree(graph.VertexID(v)))
		}
	}
	if moveShare*arcs > 2*s.w.NumEdges() {
		s.cutCounters = countCut(s.w, s.labels, s.k)
		return
	}
	if grow := s.k - len(s.load); grow > 0 {
		s.perPart = append(s.perPart, make([]int64, grow)...)
		s.load = append(s.load, make([]int64, grow)...)
	}
	for _, run := range runs {
		for i := range run.Labels {
			v := graph.VertexID(run.Start + i)
			for _, a := range s.w.Neighbors(v) {
				x := a.To
				if x < v && old[x] != s.labels[x] {
					continue // moved from x
				}
				s.count(old[v], old[x], -int64(a.Weight))
				s.count(s.labels[v], s.labels[x], int64(a.Weight))
			}
		}
	}
	s.perPart, s.load = s.perPart[:s.k], s.load[:s.k]
}

// maintain is the turn's first stage, the one place background work is
// decided, in this order: sample the load (updateLoad); start a
// background checkpoint when one is due; start a restabilization when the
// trigger fires; release the quiescers. Under overload the
// restabilization is deferred — the degradation budget trades cut quality
// for lookup latency — and runs at the first turn after the load clears.
// Quiescers are released once the store is idle (no log backlog, no run
// in flight, no checkpoint pending) and none of the passes started
// anything and no restabilization is due. (Waiting out the checkpoint
// keeps quiesced histories deterministic in their durability side
// effects — which checkpoints exist — not just their labels.)
func (s *Store) maintain(now time.Time) {
	s.updateLoad(now)
	idle := len(s.quiescers) > 0 && !s.inflight && !(s.d != nil && s.d.pending) &&
		len(s.log) == 0 && s.queued == 0 && len(s.controlQ) == 0
	s.maybeCheckpoint()
	// The degradation trigger. Only a writable, journaling store
	// restabilizes: a follower (read-only) and a store still replaying its
	// journal (Open) adopt the relabel records instead.
	restab := !s.inflight && !s.readOnly.Load() && (s.d == nil || s.d.active) &&
		(s.wantRestab || s.applied.Load() > s.appliedAtRestab &&
			cutRatio(s.cross, s.total) > s.baseline*s.cfg.DegradeFactor+s.cfg.DegradeSlack)
	switch {
	case restab && s.overloaded.Load():
		// Deferred; counted once per overload episode (updateLoad clears
		// the flag when the episode ends).
		if !s.restabDeferred {
			s.restabDeferred = true
			s.ctr.DeferredRestabs.Add(1)
		}
	case restab:
		s.restabilize()
	}
	if !idle || restab || s.d != nil && s.d.pending {
		return
	}
	err := s.Err()
	for _, q := range s.quiescers {
		q <- err
	}
	s.quiescers = nil
}

// restabilize starts a background incremental run over a clone of the
// graph and the published labels, which no one writes; the coordinator
// keeps ingesting and serving while the run adapts the clone.
func (s *Store) restabilize() {
	s.wantRestab = false
	s.appliedAtRestab = s.applied.Load()
	clone := s.w.Clone()
	prev := s.view.Load().Labels
	var affected []graph.VertexID
	if s.cfg.Options.AffectedOnly {
		affected = make([]graph.VertexID, 0, len(s.affected))
		for v := range s.affected {
			affected = append(affected, v)
		}
	}
	s.affected = make(map[graph.VertexID]struct{})

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
// position through commit — the path a follower and replay take.
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
	s.commit([]logEntry{relabelEntry(&Delta{Epoch: s.epoch + 1, Gen: s.gen, K: s.k, N: len(s.labels),
		Runs: labelDiffRuns(s.labels[:len(res.labels)], res.labels)})})
}

// applyRelabel adopts a relabel entry, the one place leader, follower and
// replay land a label change of either kind, told apart by the generation.
// The next merge (epoch + 1, same generation and k) counts the migration
// volume, advances the epoch, swaps the labels in and resets the
// degradation baseline. The next resize (same epoch, generation + 1,
// another k up to core.MaxK) moves to its k and generation, swaps the
// labels in and asks for a repair run; bumping the generation discards an
// in-flight run, whose labels live in the old k-space. A resize adopted
// from a journal (a follower, or Open's replay) also becomes the target
// k, which no Resize claimed, so a Resize after promotion or recovery
// compares against the k the journal leaves. A journaled record
// is input from outside the process, so one that is neither — or names
// another vertex count, a run outside the labels or a label outside
// [0,k) — is refused: the error goes to Err and nothing changes.
func (s *Store) applyRelabel(d *Delta) {
	merge := d.Epoch == s.epoch+1 && d.Gen == s.gen && d.K == s.k
	resize := d.Epoch == s.epoch && d.Gen == s.gen+1 && d.K != s.k && d.K >= 1 && d.K <= core.MaxK
	merged, err := d.Apply(slices.Clone(s.labels))
	if !merge && !resize || d.N != len(s.labels) {
		err = fmt.Errorf("epoch %d gen %d k=%d n=%d onto epoch %d gen %d k=%d n=%d",
			d.Epoch, d.Gen, d.K, d.N, s.epoch, s.gen, s.k, len(s.labels))
	} else if err == nil {
		err = metrics.ValidateLabels(merged, d.K)
	}
	if err != nil {
		err = fmt.Errorf("serve: refusing relabel: %w", err)
		s.lastErr.Store(&err)
		return
	}
	if resize {
		if s.readOnly.Load() || s.d != nil && !s.d.active {
			s.kMu.Lock()
			s.targetK = d.K
			s.kMu.Unlock()
		}
		s.k = d.K
		s.gen++
		s.wantRestab = true
		s.ctr.ElasticResizes.Add(1)
		moved := 0
		for _, run := range s.relabel(merged) {
			moved += len(run.Labels)
		}
		s.ctr.ElasticSeedMoved.Add(int64(moved))
		return
	}
	verts, weight := cluster.MigrationVolume(s.w, s.labels, merged)
	s.ctr.MigratedVertices.Add(verts)
	s.ctr.MigratedWeight.Add(weight)
	s.epoch++
	s.wantRestab = false
	s.ctr.Restabilizations.Add(1)
	s.relabel(merged)
	s.baseline = cutRatio(s.cross, s.total)
}
