package serve

// Durability: the optional journal + checkpoint subsystem that lets a
// Store survive process death without recomputing the partitioning from
// scratch — the exact cost the paper's maintenance argument (§III-D) is
// about avoiding. Each coordinator turn is maintain → drain → commit; the
// durable write path is the commit stage (handleGroup) and the
// checkpoints maintain starts:
//
//   - Commit, journal (journalGroup → wal.AppendGroup): the drained
//     group's mutations and relabels (each entry holds the
//     wal.GroupEntry the journal writes) are durably appended to the
//     segmented CRC-framed journal as ONE group — one frame-staging pass,
//     one write syscall, and (under wal.SyncAlways) one fsync for the whole
//     group, so concurrent submitters amortize the disk barrier toward
//     the interval policy. The durability boundary is UNCHANGED by the
//     batching: every entry is journaled (and the group's fsync has
//     completed) before ANY entry of the group is applied, so the
//     pre-apply invariant — no state a lookup has ever observed can be
//     forgotten by a crash — holds per entry exactly as it did when
//     entries were journaled one at a time. (Entries still queued in the
//     in-memory mutation log at crash time were never applied, never
//     visible, and are dropped.)
//   - Commit, apply (handleGroup): the group's entries apply in
//     submission order, every batch through the one apply path
//     (applyBatch, on graph.Mutation.ApplyEdits), and a run of
//     consecutive batches that append no vertex and remove no edge
//     shares one publication — one snapshot and one counter-only delta
//     for the run (coalesced apply). Sound because such batches never
//     relabel: their composed effect is independent of grouping.
//   - Maintain, background checkpoints (maybeCheckpoint): a checkpoint is
//     due when both hold: at least Durability.CheckpointEvery batches
//     were applied since the newest checkpoint, and the journal appended
//     since it holds at least that checkpoint's payload bytes. This is
//     log compaction by bytes (Raft, Ongaro and Ousterhout, USENIX ATC
//     2014, §7): a large graph is not re-encoded for a small journal, and
//     recovery reads at most about twice a checkpoint's bytes. The journal
//     tail Open replayed counts toward the bytes, so repeated crashes do
//     not let it grow. When one is due the coordinator only *captures* the
//     state — the published labels, the coordinator state (coordState: k
//     and trigger state), integer cut counters, and the graph via
//     Weighted.Clone — and a background goroutine encodes the capture
//     (the CSR binary form), writes + fsyncs + atomically installs the
//     checkpoint file, prunes old checkpoints, and truncates covered
//     journal segments. At most one
//     checkpoint is in flight; the write plane never stops for the state
//     encode. NewDurable writes an initial checkpoint and Close a final
//     one synchronously (after waiting out an in-flight capture).
//   - Relabels: a completed restabilization and a resize's immediate
//     relabel are each journaled as a record of their own
//     (wal.RecordRelabel, the label runs it changed) in a group of one,
//     then applied at that position — so the journal says what every label is, and nothing but
//     the leader computes one. A resize request splits the group it was
//     drained in: the entries before it commit first, the ones after it
//     last. Recovery and followers therefore need no seed: a store opened
//     with any core.Options.Seed reaches the journaled labels, and the
//     seed only drives new boots and the leader's own runs.
//   - Recovery (Open): load the newest checkpoint that verifies, rebuild
//     the store over it (its counters recomputed exactly and checked
//     against the stored ones), then replay the journal tail through
//     ApplyRecord — the entry a follower feeds the leader's stream
//     through — adopting each relabel record where it stands and starting
//     no restabilization of its own. A torn tail is truncated; mid-log
//     corruption fails recovery loudly. A final exact check
//     (reconcileNow) compares the incrementally replayed counters with a
//     recount (metrics CutDrift stays 0); it is the only place a serving
//     store recounts. A crash while a background
//     checkpoint was in flight leaves, at worst, a leftover temp file
//     (ignored) and no new checkpoint — recovery falls back to the
//     previous valid checkpoint and replays a longer journal tail to the
//     identical state, which is why the journal is only truncated below
//     the oldest RETAINED checkpoint.
//
// Determinism: replay re-applies the journaled entry sequence, relabels
// included, so a store recovers labels, k and integer cut counters
// bit-identical to the state it had journaled through — quiesced or
// mid-churn. A run that was in flight at the crash was never
// journaled; the recovered leader starts it again (the checkpointed
// wantRestab, or the cut trigger) once it is journaling.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// DurabilityConfig tunes the journal + checkpoint subsystem used by
// NewDurable, BootstrapDurable and Open. The zero value means: no
// per-append fsync (wal.SyncNever), 4 MiB segments, periodic checkpoints
// at least 4096 applied batches apart, the 2 newest checkpoints retained,
// and a final checkpoint on Close.
type DurabilityConfig struct {
	// Fsync selects when journal appends reach stable storage:
	// wal.SyncNever (page cache; survives process crashes, not power
	// loss), wal.SyncEvery (background interval), wal.SyncAlways (every
	// record, the strongest and slowest).
	Fsync wal.Policy
	// FsyncInterval is the background fsync period under wal.SyncEvery.
	// Default 50ms.
	FsyncInterval time.Duration
	// SegmentBytes rotates journal segments past this size. Default 4 MiB.
	SegmentBytes int64
	// CheckpointEvery is the least number of applied batches between
	// periodic checkpoints. A checkpoint is due only when, in addition, the
	// journal appended since the newest checkpoint holds at least that
	// checkpoint's payload bytes, so recovery reads at most about twice a
	// checkpoint's bytes. Default 4096; negative disables periodic
	// checkpoints (the journal then grows until Close's final checkpoint
	// truncates it).
	CheckpointEvery int
	// KeepCheckpoints retains this many newest checkpoints; the journal is
	// truncated below the oldest retained one, so recovery still works if
	// the newest checkpoint file is lost. Default 2.
	KeepCheckpoints int
	// NoFinalCheckpoint skips the checkpoint normally written during
	// Close, leaving recovery to replay the journal tail — faster
	// shutdown, slower next Open. (The crash-recovery tests use it to
	// exercise replay.)
	NoFinalCheckpoint bool
}

func (d *DurabilityConfig) normalize() {
	if d.CheckpointEvery == 0 {
		d.CheckpointEvery = 4096
	}
	if d.KeepCheckpoints < 1 {
		d.KeepCheckpoints = 2
	}
}

// durable is the coordinator-owned durability state. Between Open's
// attach handshake and Close, only the coordinator goroutine touches it
// (the background checkpointer works on a captured clone and reports
// back through Store.ckptDone).
type durable struct {
	dir      string
	cfg      DurabilityConfig
	jrn      *wal.Journal
	active   bool             // journaling live (false while Open replays)
	lastSeq  uint64           // sequence of the last journaled record
	pending  bool             // a background checkpoint is in flight
	groupBuf []wal.GroupEntry // group-append staging, reused per turn

	// The checkpoint rule's baselines (maybeCheckpoint). A failed
	// checkpoint moves ckptApplied only, so it is retried one cadence
	// interval later, not on every turn.
	ckptApplied int64 // applied count at the last capture, failed ones included
	ckptBytes   int64 // payload bytes of the newest checkpoint
	jrnBase     int64 // journalBytes() at the newest checkpoint, less the tail Open replayed
}

func journalDir(dir string) string { return filepath.Join(dir, "journal") }
func ckptDir(dir string) string    { return filepath.Join(dir, "checkpoints") }

// journalBytes is the byte count the journal appended in this process,
// the store's JournalBytes counter (a store has one journal):
// journalBytes() - jrnBase is the journal above the newest checkpoint.
func (s *Store) journalBytes() int64 { return s.ctr.JournalBytes.Load() }

func (d *durable) walOptions(ctr *metrics.ServeCounters) wal.Options {
	return wal.Options{
		SegmentBytes:   d.cfg.SegmentBytes,
		Sync:           d.cfg.Fsync,
		SyncInterval:   d.cfg.FsyncInterval,
		AppendsCounter: &ctr.JournalAppends,
		BytesCounter:   &ctr.JournalBytes,
		SyncsCounter:   &ctr.JournalSyncs,
	}
}

// HasState reports whether dir holds a recoverable store (at least one
// checkpoint) — the "open or bootstrap?" decision drivers make at start.
func HasState(dir string) bool {
	seqs, err := wal.Checkpoints(ckptDir(dir))
	return err == nil && len(seqs) > 0
}

// NewDurable is New plus durability: it writes an initial checkpoint of
// the starting state into dir, opens the journal, and returns a Store that
// journals every accepted entry before applying it. dir must not already hold store state (use Open to
// recover).
func NewDurable(dir string, w *graph.Weighted, labels []int32, cfg Config) (*Store, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	cfg.Durability.normalize()
	if HasState(dir) {
		return nil, fmt.Errorf("serve: %s already holds store state; use Open to recover it", dir)
	}
	s, err := newFresh(w, labels, cfg)
	if err != nil {
		return nil, err
	}
	s.d = &durable{dir: dir, cfg: cfg.Durability}
	// Initial checkpoint at sequence 0: recovery of an empty journal must
	// reproduce exactly the construction-time state.
	if err := s.checkpointNow(); err != nil {
		return nil, err
	}
	jrn, err := wal.Open(journalDir(dir), 1, s.d.walOptions(&s.ctr))
	if err != nil {
		return nil, err
	}
	s.d.jrn = jrn
	s.d.active = true
	s.jrnLive.Store(jrn)
	s.start()
	return s, nil
}

// BootstrapDurable partitions g from scratch and starts a durable Store
// over the result — the one-call path for drivers with a -data-dir.
func BootstrapDurable(dir string, g *graph.Graph, cfg Config) (*Store, error) {
	w, labels, err := partitionFromScratch(g, cfg)
	if err != nil {
		return nil, err
	}
	return NewDurable(dir, w, labels, cfg)
}

// Open recovers a Store from dir: it loads the newest checkpoint that
// verifies (falling back past a damaged newest one), rebuilds the store
// over it (re-verifying the stored cut counters against an exact count),
// replays the journal past it through ApplyRecord (adopting relabel
// records, restabilizing nothing — see the durability comment above),
// verifies the counters again with an exact reconcile, and resumes
// journaling new entries. The journal says what every label is, so any
// cfg.Options.Seed recovers the same state; the seed drives only the runs
// the recovered leader starts. Returns wal.ErrNoCheckpoint (wrapped) when
// dir holds no state.
//
// The checkpoint must carry the current version, 3; another fails Open
// with ErrCheckpointVersion before the journal is read, so the directory
// is left as it was. Batches that were rejected live re-reject identically
// during replay; such errors are observable via Err, as they were, and do
// not fail recovery. Journal or checkpoint corruption does.
func Open(dir string, cfg Config) (*Store, error) { return open(dir, cfg, false) }

// OpenReadOnly is Open for a follower: the store is read-only from the
// start (SetReadOnly), so it never restabilizes or journals a relabel of
// its own — it adopts the leader's.
func OpenReadOnly(dir string, cfg Config) (*Store, error) { return open(dir, cfg, true) }

func open(dir string, cfg Config, readOnly bool) (*Store, error) {
	seq, payload, err := wal.LatestCheckpoint(ckptDir(dir))
	if err != nil {
		return nil, fmt.Errorf("serve: opening %s: %w", dir, err)
	}
	// The version check comes before the journal is read, since Replay
	// truncates a torn tail.
	st, err := decodeCheckpoint(payload)
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint %d in %s: %w", seq, dir, err)
	}
	if st.seq != seq {
		return nil, fmt.Errorf("serve: checkpoint file %d declares inner seq %d", seq, st.seq)
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	cfg.Durability.normalize()
	s, err := newStore(st, cfg)
	if err == nil {
		// The stored counters must match the exact recompute.
		if s.cross != st.cross || s.total != st.total {
			err = fmt.Errorf("recomputed cut counters (cut=%d,total=%d) disagree with checkpoint (cut=%d,total=%d)",
				s.cross, s.total, st.cross, st.total)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint %d in %s: %w", seq, dir, err)
	}
	s.d = &durable{dir: dir, cfg: cfg.Durability}
	s.readOnly.Store(readOnly)
	s.start()

	var replayed int64 // journal bytes above the checkpoint
	next, err := wal.Replay(journalDir(dir), seq, func(rec wal.Record) error {
		// Batch-application errors (deterministic re-rejections of batches
		// rejected live) stay observable via Err without failing recovery.
		if err := s.ApplyRecord(rec); err != nil {
			return err
		}
		s.ctr.ReplayedRecords.Add(1)
		replayed += int64(rec.Bytes)
		return nil
	})
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("serve: replaying journal in %s: %w", dir, err)
	}
	jrn, err := wal.Open(journalDir(dir), next, s.d.walOptions(&s.ctr))
	if err != nil {
		s.Close()
		return nil, err
	}
	// The freshly opened journal is handed to the coordinator through the
	// ordered log, so journaling (and with it restabilization) activates
	// only after every replayed entry was applied and without racing
	// coordinator reads. The checkpoint rule counts from the loaded
	// checkpoint, replayed batches and bytes included.
	if err := s.control(func() error {
		s.d.jrn = jrn
		s.d.lastSeq = next - 1
		s.d.ckptApplied = st.applied
		s.d.ckptBytes = int64(len(payload))
		s.d.jrnBase = -replayed
		s.d.active = true
		s.jrnLive.Store(jrn)
		s.journalSeq.Store(next - 1)
		return nil
	}); err != nil {
		jrn.Close()
		s.Close()
		return nil, err
	}
	// Post-recovery check: the counters are recounted exactly; a mismatch
	// with the incremental values recovered from checkpoint+replay would
	// surface as CutDrift (it must stay 0).
	if err := s.control(s.reconcileNow); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// control sends run through the ordered log as a control entry and waits
// for its reply (see the control type; a nil run is a quiesce).
func (s *Store) control(run func() error) error {
	reply := make(chan error, 1)
	if err := s.enqueue(logEntry{ctl: control{run: run, reply: reply}}, false); err != nil {
		return err
	}
	select {
	case err := <-reply:
		return err
	case <-s.done:
		return ErrClosed
	}
}

// reconcileNow is the exact check, run as a control: it recounts the
// counters (cross, total, perPart, load) from the graph and compares them
// with the incremental ones. A mismatch counts as CutDrift, takes the
// exact values and republishes. Open runs it after replay, where state
// from outside the program has entered, and the tests after their
// histories; the serving loop never does.
func (s *Store) reconcileNow() error {
	exact := countCut(s.w, s.labels, s.k)
	if exact.cross != s.cross || exact.total != s.total || !slices.Equal(exact.perPart, s.perPart) || !slices.Equal(exact.load, s.load) {
		s.ctr.CutDrift.Add(1)
		s.cutCounters = exact
		s.publish(nil, true)
	}
	s.ctr.CutReconciles.Add(1)
	return nil
}

// Durable reports whether the store journals and checkpoints to disk.
func (s *Store) Durable() bool { return s.d != nil }

// journalGroup durably records every mutation and relabel in the
// drained group — framed by wal.AppendGroup as one write and at most one fsync —
// before any of them is applied. This is the group-commit stage: the
// per-entry durability boundary (journal-before-apply) is preserved
// because the whole group is durable before the first apply. A failed
// group append rejects every journalable entry in the group (counted,
// error recorded, graph untouched): applying an unjournaled batch would
// let a crash forget state lookups had seen. Control entries are
// unaffected. Returns false when the group's entries must be dropped.
func (s *Store) journalGroup(entries []logEntry) bool {
	if s.d == nil || !s.d.active {
		return true
	}
	tJournal := time.Now()
	defer func() { s.stageHist[stageJournal].Record(time.Since(tJournal)) }()
	ge := s.d.groupBuf[:0]
	for _, e := range entries {
		if e.ctl.reply == nil {
			ge = append(ge, e.GroupEntry)
		}
	}
	s.d.groupBuf = ge
	if len(ge) == 0 {
		return true
	}
	firstSeq, _, err := s.d.jrn.AppendGroup(ge)
	for i := range ge {
		ge[i] = wal.GroupEntry{} // drop batch references; the buffer outlives the turn
	}
	if err != nil {
		err = fmt.Errorf("serve: journal append: %w", err)
		s.lastErr.Store(&err) // also when the group holds no batch
		for _, e := range entries {
			if e.Mut != nil {
				s.resolve(1, e.ten, err)
			}
		}
		// Fail stop on storage faults: a poisoned journal (sticky write or
		// fsync error) can never append again, so continuing to accept
		// writes would either silently drop durability or reject every
		// batch one group at a time. Flip to degraded — the write paths
		// refuse with ErrDegraded, checkpoints stop (the journal tail on
		// disk stays the authoritative suffix), and lookups keep serving
		// the last published snapshots. Per-call rejections that do NOT
		// poison the journal (an oversized record) degrade nothing.
		if s.d.jrn.Err() != nil {
			s.degraded.Store(true)
		}
		return false
	}
	s.d.lastSeq = firstSeq + uint64(len(ge)) - 1
	s.journalSeq.Store(s.d.lastSeq)
	s.journalWake.wake() // after the store: a woken stream reads the new position
	s.ctr.GroupCommits.Add(1)
	s.ctr.GroupedEntries.Add(int64(len(ge)))
	return true
}

// maybeCheckpoint starts the periodic background checkpoint once it is
// due: at least CheckpointEvery batches applied since the last capture,
// and the journal above the newest checkpoint at least that checkpoint's
// payload bytes. It captures the state (the published labels, the
// counters, and the graph via Weighted.Clone) and hands it to a goroutine
// that encodes, writes and installs it off the hot path. At most one checkpoint is in flight; a
// failed one moves only the batch baseline (see finishCheckpoint), with
// the journal carrying every entry in the meantime.
func (s *Store) maybeCheckpoint() {
	d := s.d
	if d == nil || !d.active || d.cfg.CheckpointEvery <= 0 || d.pending || s.degraded.Load() {
		return
	}
	if s.applied.Load()-d.ckptApplied < int64(d.cfg.CheckpointEvery) || s.journalBytes()-d.jrnBase < d.ckptBytes {
		return
	}
	tCapture := time.Now()
	st := s.captureState(true)
	s.stageHist[stageCkptCapture].Record(time.Since(tCapture))
	d.pending = true
	s.ctr.CheckpointsPending.Store(1)
	res := ckptResult{applied: st.applied, journal: s.journalBytes()}
	go func() {
		tWrite := time.Now()
		res.bytes, res.err = s.writeCheckpoint(st)
		s.stageHist[stageCkptWrite].Record(time.Since(tWrite))
		s.ckptDone <- res
	}()
}

// ckptResult is a checkpoint's report to the coordinator: the baselines
// of the checkpoint rule it moves, and how the write went.
type ckptResult struct {
	applied int64 // applied count at capture
	journal int64 // journalBytes() at capture
	bytes   int   // payload bytes written
	err     error
}

// writeCheckpoint encodes a captured state, atomically installs the
// checkpoint file, prunes old checkpoints and truncates covered journal
// segments, returning the payload size. It touches only the capture, the
// checkpoint directory and the (concurrency-safe) journal truncation API,
// so it is safe to run off the coordinator; the tmp+fsync+rename install
// keeps a crash mid-write invisible to recovery.
func (s *Store) writeCheckpoint(st *ckptState) (int, error) {
	d := s.d
	payload := encodeCheckpoint(st)
	if err := wal.WriteCheckpoint(ckptDir(d.dir), st.seq, payload); err != nil {
		return 0, err
	}
	oldest, err := wal.PruneCheckpoints(ckptDir(d.dir), d.cfg.KeepCheckpoints)
	if err != nil {
		return 0, err
	}
	if d.jrn != nil {
		if _, err := d.jrn.TruncateBelow(oldest); err != nil {
			return 0, err
		}
	}
	return len(payload), nil
}

// finishCheckpoint lands the background checkpointer's report on the
// coordinator: bookkeeping on success, a recorded (non-fatal) error on
// failure — the store keeps serving and journaling either way, and a
// failed checkpoint just means recovery replays a longer tail. The batch
// baseline advances either way, so a persistently failing checkpoint
// retries one cadence interval later instead of hot-looping (the ckptDone
// delivery itself wakes the coordinator, so an instant re-arm would
// clone + fail continuously with no external traffic).
func (s *Store) finishCheckpoint(res ckptResult) {
	s.d.pending = false
	s.ctr.CheckpointsPending.Store(0)
	s.d.ckptApplied = res.applied
	if res.err != nil {
		err := fmt.Errorf("serve: checkpoint: %w", res.err)
		s.lastErr.Store(&err)
		return
	}
	s.noteCheckpoint(res)
}

// noteCheckpoint makes an installed checkpoint the rule's newest one and
// counts it.
func (s *Store) noteCheckpoint(res ckptResult) {
	s.d.ckptApplied, s.d.ckptBytes, s.d.jrnBase = res.applied, int64(res.bytes), res.journal
	s.ctr.Checkpoints.Add(1)
	s.ctr.CheckpointBytes.Add(int64(res.bytes))
}

// checkpointNow captures, encodes and installs a checkpoint
// synchronously: the initial checkpoint, before start, and the final one,
// from drainAndExit. The live graph is encoded directly — no clone —
// since nothing else is running.
func (s *Store) checkpointNow() error {
	st := s.captureState(false)
	n, err := s.writeCheckpoint(st)
	if err != nil {
		return err
	}
	s.noteCheckpoint(ckptResult{applied: st.applied, journal: s.journalBytes(), bytes: n})
	return nil
}

// finishDurable runs during drainAndExit: wait out an in-flight background checkpoint, write the graceful-shutdown
// final checkpoint (unless disabled), and close the journal.
func (s *Store) finishDurable() {
	if s.d == nil {
		return
	}
	if s.d.pending {
		s.finishCheckpoint(<-s.ckptDone)
	}
	// A degraded store skips the final checkpoint too: the journal tail
	// on disk is the authoritative suffix of the history, and a
	// checkpoint taken after the fault could cover acknowledged state the
	// poisoned journal never recorded the successor of.
	if s.d.active && !s.d.cfg.NoFinalCheckpoint && !s.degraded.Load() {
		if err := s.checkpointNow(); err != nil {
			err = fmt.Errorf("serve: final checkpoint: %w", err)
			s.lastErr.Store(&err)
		}
	}
	if s.d.jrn != nil {
		if err := s.d.jrn.Close(); err != nil && s.d.active {
			err = fmt.Errorf("serve: closing journal: %w", err)
			s.lastErr.Store(&err)
		}
	}
}

// The checkpoint payload layout (all little-endian; the file header, CRC
// and covering sequence live in internal/wal):
//
//	u16 version | u64 seq | u64 applied | i64 appliedAtRestab
//	u64 gen | u64 epoch | f64 baseline | u8 flags
//	u32 k | u32 n | n × u32 labels
//	i64 cross | i64 total   (cut counters, verified on recovery)
//	u32 affected | affected × u32 vertex
//	graph (graph.Weighted).EncodeBinary
//
// Every byte is read: whatever decodes re-encodes to the same payload.
// Version 3 says, besides, that the journal above the checkpoint holds
// every label change as a relabel record, and that the graph follows the
// rule of a simple graph: one arc per neighbour, a re-added edge adding
// its weight. Version 2 held a lastReconcile field after appliedAtRestab
// and a shard-ranges section after k, both dead since the store had one
// writer, and its journal recorded a resize as the new k alone, which
// replay recomputed from the seed. Version 1 was written while
// graph.Weighted kept parallel arcs. Neither is read (see
// ErrCheckpointVersion).
const (
	ckptVersion = 3

	flagWantRestab = 1 << 0
)

// ErrCheckpointVersion is wrapped by Open's error when the data dir holds
// a checkpoint this code does not read: one that does not carry the
// current version. The message around it names the last commit that
// opens the dir.
var ErrCheckpointVersion = errors.New("serve: unsupported checkpoint format")

// ckptState is both the capture a checkpoint writes and the state a
// recovery reads: the checkpointed coordinator state at sequence seq,
// what the checkpoint derives from the rest of the store, the labels and
// the graph.
type ckptState struct {
	coordState
	seq          uint64
	applied      int64
	cross, total int64
	affected     []graph.VertexID
	labels       []int32
	w            *graph.Weighted
}

// captureState snapshots the coordinator-owned state into a ckptState —
// the coordinator's half of a background checkpoint. The labels are the
// published array, which no one writes; with clone set the graph is
// deep-copied (Weighted.Clone, a flat-array memcpy much cheaper than the
// binary encode) so the capture stays consistent while the coordinator
// goes on, and the synchronous paths (initial and final checkpoint) pass
// clone=false and alias the live graph they exclusively own. An in-flight
// restabilization cannot be captured (it lives in a background clone), so
// it is folded into the wantRestab flag: a leader recovered from the
// capture runs it again once it journals, and a follower keeps the flag
// until the leader's relabel record arrives and clears it.
func (s *Store) captureState(clone bool) *ckptState {
	n := len(s.labels)
	st := &ckptState{
		coordState: s.coordState,
		seq:        s.d.lastSeq,
		applied:    s.applied.Load(),
		cross:      s.cross,
		total:      s.total,
		affected:   make([]graph.VertexID, 0, len(s.affected)),
		labels:     s.labels[:n:n],
		w:          s.w,
	}
	st.wantRestab = s.wantRestab || s.inflight
	for v := range s.affected {
		st.affected = append(st.affected, v)
	}
	slices.Sort(st.affected)
	if clone {
		st.w = s.w.Clone()
	}
	return st
}

// encodeCheckpoint serializes a captured state into the checkpoint
// payload.
func encodeCheckpoint(st *ckptState) []byte {
	buf := make([]byte, 0, 84+4*len(st.labels)+4*len(st.affected))
	buf = binary.LittleEndian.AppendUint16(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint64(buf, st.seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.applied))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.appliedAtRestab))
	buf = binary.LittleEndian.AppendUint64(buf, st.gen)
	buf = binary.LittleEndian.AppendUint64(buf, st.epoch)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.baseline))
	var flags byte
	if st.wantRestab {
		flags |= flagWantRestab
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(st.k))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.labels)))
	for _, l := range st.labels {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.cross))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.total))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.affected)))
	for _, v := range st.affected {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	b := bytes.NewBuffer(buf)
	b.Grow(int(16*st.w.NumEdges()) + 4*st.w.NumVertices() + 32)
	_ = st.w.EncodeBinary(b) // bytes.Buffer writes cannot fail
	return b.Bytes()
}

// decodeCheckpoint parses a checkpoint payload. A payload that does not
// carry ckptVersion fails with ErrCheckpointVersion.
func decodeCheckpoint(payload []byte) (*ckptState, error) {
	r := &ckptReader{b: payload}
	st := &ckptState{}
	if v := r.u16(); r.err == nil && v != ckptVersion {
		r.fail("checkpoint version %d, want %d; commit a37e735 is the last that opens a version-2 "+
			"data dir, and bdaf9be the last that opens a version-1 one: %w", v, ckptVersion, ErrCheckpointVersion)
	}
	st.seq = r.u64()
	st.applied = int64(r.u64())
	st.appliedAtRestab = int64(r.u64())
	st.gen = r.u64()
	st.epoch = r.u64()
	st.baseline = math.Float64frombits(r.u64())
	if flags := r.take(1); r.err == nil {
		if flags[0]&^flagWantRestab != 0 {
			r.fail("checkpoint has unknown flags %#x", flags[0])
		}
		st.wantRestab = flags[0]&flagWantRestab != 0
	}
	st.k = int(int32(r.u32()))
	if r.err == nil && (st.k < 1 || st.k > core.MaxK) {
		r.fail("checkpoint declares k=%d, want 1..%d", st.k, core.MaxK)
	}
	n := int(r.u32())
	if n < 0 || n > graph.MaxVertices {
		r.fail("checkpoint declares %d labels", n)
	}
	if raw := r.take(4 * n); r.err == nil {
		st.labels = make([]int32, n)
		for i := range st.labels {
			st.labels[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	}
	st.cross = int64(r.u64())
	st.total = int64(r.u64())
	nAffected := int(r.u32())
	if nAffected < 0 || nAffected > n {
		r.fail("checkpoint declares %d affected vertices for %d labels", nAffected, n)
	}
	if raw := r.take(4 * nAffected); r.err == nil && nAffected > 0 {
		st.affected = make([]graph.VertexID, nAffected)
		for i := range st.affected {
			st.affected[i] = graph.VertexID(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	w, err := graph.DecodeWeightedBinary(r.b)
	if err != nil {
		return nil, err
	}
	st.w = w
	return st, nil
}

type ckptReader struct {
	b   []byte
	err error
}

// fail records the first decode error; later reads return zeros.
func (r *ckptReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *ckptReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.fail("truncated payload (%d bytes left, need %d)", len(r.b), n)
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *ckptReader) u16() uint16 {
	if b := r.take(2); r.err == nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *ckptReader) u32() uint32 {
	if b := r.take(4); r.err == nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *ckptReader) u64() uint64 {
	if b := r.take(8); r.err == nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}
