package serve

// Durability: the optional journal + checkpoint subsystem that lets a
// Store survive process death without recomputing the partitioning from
// scratch — the exact cost the paper's maintenance argument (§III-D) is
// about avoiding. Each coordinator turn is maintain → drain → commit; the
// durable write path is the commit stage (handleGroup) and the
// checkpoints maintain starts:
//
//   - Commit, journal (journalGroup → wal.AppendGroup): the drained
//     group's mutations, resizes and relabels (each entry holds the
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
//   - Commit, coalesced apply (handleGroup): the group's entries apply
//     in submission order, with consecutive add-only batches merged into
//     a single shard broadcast — one cut-delta fold and one snapshot
//     publication per shard for the run. Sound because add-only batches
//     never relabel: their composed effect is independent of grouping.
//   - Maintain, background checkpoints (maybeCheckpoint): every
//     Durability.CheckpointEvery applied entries the coordinator only
//     *captures* the composed state under the shard barrier — labels, the
//     coordinator state (coordState: k, shard ranges, trigger state),
//     integer cut counters, and the graph via Weighted.Clone — and a
//     background goroutine encodes the capture (the existing CSR binary
//     form), writes + fsyncs + atomically installs the checkpoint file,
//     prunes old checkpoints, and truncates covered journal segments.
//     At most one checkpoint is in flight; the write plane never stops
//     for the state encode. Close still checkpoints synchronously (after
//     waiting out an in-flight capture), so graceful shutdown semantics
//     are unchanged. When the change feed is on (deltas recorded since
//     the last checkpoint) and the chain gate passes, the interval is
//     persisted as an INCREMENTAL checkpoint instead: a .dckp link
//     holding just the label-run deltas since the previous link, chained
//     by (seq, prevSeq) back to the last full base. The chain is capped
//     (Durability.MaxDeltaChain) and a link that would not be meaningfully
//     smaller than a full re-encode forces a rebase: a fresh full
//     checkpoint, chain pruned, journal truncated — so recovery cost and
//     disk footprint stay bounded while steady-state checkpoint bytes per
//     interval shrink by orders of magnitude (see BenchmarkCheckpointDelta).
//   - Relabels: a completed restabilization is journaled as its own
//     record (wal.RecordRelabel, the label runs it changed) in a group of
//     one, then applied at that position — so the journal says where
//     every merge landed, and nothing but the leader computes one.
//   - Recovery (Open): load the latest valid checkpoint — a full base
//     plus any .dckp delta links chained above it, applied in order (a
//     broken link ends the chain early; the journal tail covers the
//     rest) — rebuild the shards over the decoded state (their counters
//     recomputed exactly), then replay the journal tail through the
//     normal shard-broadcast apply path, adopting each relabel record
//     where it stands and starting no restabilization of its own. A
//     torn tail is truncated; mid-log corruption fails recovery loudly.
//     A final exact check (reconcileNow) compares every shard's
//     incrementally replayed counters with a recount (metrics CutDrift
//     stays 0); it is the only place a serving store recounts. A crash
//     while a background checkpoint was in flight leaves, at worst, a
//     leftover temp file (ignored) and no new checkpoint — recovery
//     falls back to the previous valid checkpoint and replays a longer
//     journal tail to the identical state, which is why the journal is
//     only truncated below the oldest RETAINED checkpoint.
//
// Determinism: replay re-applies the journaled entry sequence, relabels
// included, so a store recovers labels, k, shard ranges and integer cut
// counters bit-identical to the state it had journaled through —
// quiesced or mid-churn. A run that was in flight at the crash was never
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

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// DurabilityConfig tunes the journal + checkpoint subsystem used by
// NewDurable, BootstrapDurable and Open. The zero value means: no
// per-append fsync (wal.SyncNever), 4 MiB segments, a checkpoint every
// 4096 applied entries, the 2 newest checkpoints retained, and a final
// checkpoint on Close.
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
	// CheckpointEvery writes a checkpoint after this many applied entries.
	// Default 4096; negative disables periodic checkpoints (the journal
	// then grows until Close's final checkpoint truncates it).
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
	// MaxDeltaChain caps the chain of incremental (delta) checkpoints
	// written between full re-encodes: after a full checkpoint, up to
	// MaxDeltaChain checkpoints encode only the changed label runs plus
	// the small metadata block against the previous encoding (bytes scale
	// with churn, not |E|), then the next one rebases in full. A delta
	// that would not undercut half the last full payload also forces a
	// rebase. Default 8; negative disables incremental checkpoints
	// (every checkpoint re-encodes in full, the pre-delta behavior).
	MaxDeltaChain int
}

func (d *DurabilityConfig) normalize() {
	if d.CheckpointEvery == 0 {
		d.CheckpointEvery = 4096
	}
	if d.KeepCheckpoints < 1 {
		d.KeepCheckpoints = 2
	}
	if d.MaxDeltaChain == 0 {
		d.MaxDeltaChain = 8
	}
}

// durable is the coordinator-owned durability state. Between Open's
// attach handshake and Close, only the coordinator goroutine touches it
// (the background checkpointer works on a captured clone and reports
// back through Store.ckptDone).
type durable struct {
	dir         string
	cfg         DurabilityConfig
	jrn         *wal.Journal
	active      bool             // journaling live (false while Open replays)
	lastSeq     uint64           // sequence of the last journaled record
	ckptApplied int64            // applied count at the last installed checkpoint
	pending     bool             // a background checkpoint is in flight
	groupBuf    []wal.GroupEntry // group-append staging, reused per turn

	// Incremental-checkpoint chain state, touched only inside
	// writeCheckpointState: at most one checkpoint is ever in flight
	// (pending gates the background path; the synchronous paths run with
	// nothing else active), so the writer owns these exclusively.
	prevLabels []int32 // labels at the last written encoding; nil until a full lands
	tipSeq     uint64  // journal seq of the chain tip (last written encoding)
	chainLen   int     // delta links written since the last full checkpoint
	fullBytes  int     // payload size of the last full checkpoint
}

func journalDir(dir string) string { return filepath.Join(dir, "journal") }
func ckptDir(dir string) string    { return filepath.Join(dir, "checkpoints") }

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
// the starting state into dir, opens the journal, and returns a Store
// that journals every accepted entry before applying it. dir must not
// already hold store state (use Open to recover).
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

// Open recovers a Store from dir: it loads the newest valid base
// checkpoint plus its chain of delta checkpoints (wal.LatestChain),
// composes the chain — structurally replaying the journal across
// (base, tip] to rebuild the graph while each link overlays the labels,
// k, bounds and counters it covers — rebuilds the shards over the
// composed state (re-verifying the cut counters bit-for-bit, which
// checks the whole chain's integrity for free), replays any records past
// the tip through ApplyRecord (adopting relabel records, restabilizing
// nothing — see the durability comment above), verifies the counters
// again with an exact reconcile, and resumes journaling new entries. With
// no chain on disk this is exactly the pre-delta recovery. Returns
// wal.ErrNoCheckpoint (wrapped) when dir holds no state.
//
// Every checkpoint and chain link must carry the current version, 2; one
// that does not fails Open with ErrCheckpointVersion before the journal is
// read, so the directory is left as it was. Batches that were rejected
// live re-reject identically during replay (both phases); such errors are
// observable via Err, as they were, and do not fail recovery. Journal or
// checkpoint corruption does — except a damaged chain link, which just
// shortens the chain (wal.LatestChain) and lengthens the live replay tail.
func Open(dir string, cfg Config) (*Store, error) { return open(dir, cfg, false) }

// OpenReadOnly is Open for a follower: the store is read-only from the
// start (SetReadOnly), so it never restabilizes or journals a relabel of
// its own — it adopts the leader's.
func OpenReadOnly(dir string, cfg Config) (*Store, error) { return open(dir, cfg, true) }

func open(dir string, cfg Config, readOnly bool) (*Store, error) {
	baseSeq, payload, chain, err := wal.LatestChain(ckptDir(dir))
	if err != nil {
		return nil, fmt.Errorf("serve: opening %s: %w", dir, err)
	}
	st, err := decodeCheckpoint(payload)
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint %d in %s: %w", baseSeq, dir, err)
	}
	if st.seq != baseSeq {
		return nil, fmt.Errorf("serve: checkpoint file %d declares inner seq %d", baseSeq, st.seq)
	}
	// A link Open refuses fails it before the journal is read, since
	// Replay truncates a torn tail.
	for _, link := range chain {
		if _, _, err := decodeDeltaCheckpoint(link.Payload); err != nil {
			return nil, fmt.Errorf("serve: delta checkpoint %d in %s: %w", link.Seq, dir, err)
		}
	}
	seq := baseSeq
	if len(chain) > 0 {
		// Compose base+chain: walk the journal once from the base,
		// overlaying each link when the replay cursor passes its sequence.
		// Records past the tip are left to the live replay phase below.
		idx := 0
		if _, err := wal.Replay(journalDir(dir), baseSeq, func(rec wal.Record) error {
			for idx < len(chain) && rec.Seq > chain[idx].Seq {
				if err := applyCkptDelta(st, chain[idx]); err != nil {
					return err
				}
				idx++
			}
			if idx == len(chain) {
				return nil
			}
			return applyStructural(st.w, rec)
		}); err != nil {
			return nil, fmt.Errorf("serve: composing checkpoint chain in %s: %w", dir, err)
		}
		// Links at or past the final record (the tip usually is).
		for ; idx < len(chain); idx++ {
			if err := applyCkptDelta(st, chain[idx]); err != nil {
				return nil, fmt.Errorf("serve: composing checkpoint chain in %s: %w", dir, err)
			}
		}
		// applyCkptDelta advanced st.seq to the tip; recovery resumes the
		// journal (and the attach handshake) from there.
		seq = chain[len(chain)-1].Seq
	}
	if cfg.Shards == 0 {
		// Default to the checkpointed layout: recovery restores the shard
		// ranges bit-identically unless the caller asks for a new count.
		cfg.Shards = len(st.bounds) - 1
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	cfg.Durability.normalize()
	s, err := newStore(st, cfg)
	if err == nil {
		// The stored composed counters must match the exact per-shard
		// recompute — for a chain, this checks every link's integrity.
		if cross, total := s.ownedCounters(); cross != st.cross || total != st.total {
			err = fmt.Errorf("recomputed cut counters (cut=%d,total=%d) disagree with checkpoint (cut=%d,total=%d)",
				cross, total, st.cross, st.total)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint %d in %s: %w", seq, dir, err)
	}
	s.d = &durable{dir: dir, cfg: cfg.Durability}
	s.readOnly.Store(readOnly)
	s.start()

	next, err := wal.Replay(journalDir(dir), seq, func(rec wal.Record) error {
		// ApplyRecord is the entry a follower feeds the leader's stream
		// through. Batch-application errors (deterministic re-rejections of
		// batches rejected live) stay observable via Err without failing
		// recovery.
		if err := s.ApplyRecord(rec); err != nil {
			return err
		}
		s.ctr.ReplayedRecords.Add(1)
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
	// coordinator reads.
	if err := s.control(func() error {
		s.d.jrn = jrn
		s.d.lastSeq = next - 1
		s.d.ckptApplied = s.applied.Load()
		s.d.active = true
		s.jrnLive.Store(jrn)
		s.journalSeq.Store(next - 1)
		return nil
	}); err != nil {
		jrn.Close()
		s.Close()
		return nil, err
	}
	// Post-recovery check: every shard's counters are recounted exactly
	// under a barrier; a mismatch with the incremental values recovered
	// from checkpoint+replay would surface as CutDrift (it must stay 0).
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

// reconcileNow is the exact check, run as a control: under a barrier it
// recomputes every shard's counters (cross, total, perPart, load) from the
// rows it owns and compares them with the incremental ones. A shard that
// differs counts as CutDrift, takes the exact values and republishes.
// Open runs it after replay, where state from outside the program has
// entered, and the tests after their histories; the serving loop never
// does. Shard ranges are left alone.
func (s *Store) reconcileNow() error {
	s.withBarrier(func() {
		for _, sh := range s.shards {
			cross, total, perPart, load := metrics.CutWeightsRange(s.w, s.labels, s.k, sh.lo, sh.hi)
			if cross != sh.cross || total != sh.total || !slices.Equal(perPart, sh.perPart) || !slices.Equal(load, sh.load) {
				s.ctr.CutDrift.Add(1)
				sh.cross, sh.total, sh.perPart, sh.load = cross, total, perPart, load
				sh.publishFresh()
			}
		}
		s.ctr.CutReconciles.Add(1)
	})
	return nil
}

// Durable reports whether the store journals and checkpoints to disk.
func (s *Store) Durable() bool { return s.d != nil }

// journalGroup durably records every mutation, resize and relabel in the
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

// maybeCheckpoint starts the periodic background checkpoint: every
// CheckpointEvery applied entries, capture the composed state under a
// barrier (clone-only — labels, bounds, counters, and the graph via
// Weighted.Clone) and hand it to a goroutine that encodes, writes and
// installs it off the hot path. At most one checkpoint is in flight; a
// failed one re-arms at the next cadence point (see ckptResult), with
// the journal carrying every entry in the meantime.
func (s *Store) maybeCheckpoint() {
	if s.d == nil || !s.d.active || s.d.cfg.CheckpointEvery <= 0 || s.d.pending || s.degraded.Load() {
		return
	}
	if s.applied.Load()-s.d.ckptApplied < int64(s.d.cfg.CheckpointEvery) {
		return
	}
	var st *ckptState
	tCapture := time.Now()
	s.withBarrier(func() {
		st = s.captureState(true)
	})
	s.stageHist[stageCkptCapture].Record(time.Since(tCapture))
	s.d.pending = true
	s.ctr.CheckpointsPending.Store(1)
	go func() {
		tWrite := time.Now()
		res := s.writeCheckpointState(st)
		s.stageHist[stageCkptWrite].Record(time.Since(tWrite))
		s.ckptDone <- res
	}()
}

// ckptResult is the background checkpointer's report back to the
// coordinator loop. applied is set on success AND failure: the cadence
// counter advances either way, so a persistently failing checkpoint
// retries at the next cadence point instead of hot-looping (the ckptDone
// delivery itself wakes the coordinator, so an instant re-arm would
// barrier + clone + fail continuously with no external traffic).
type ckptResult struct {
	applied int64 // applied count at capture; ckptApplied advances to it
	bytes   int
	incr    bool // installed as a delta checkpoint (chain link)
	rebase  bool // full encode forced while a chain was open (cap or size)
	err     error
}

// writeCheckpointState encodes a captured state, atomically installs the
// checkpoint file, prunes old checkpoints and truncates covered journal
// segments. It touches only the capture, the durable chain state (which
// it owns — at most one checkpoint is in flight), the checkpoint
// directory and the (concurrency-safe) journal truncation API, so it is
// safe to run off the coordinator; the tmp+fsync+rename install keeps a
// crash mid-write invisible to recovery.
//
// Incremental mode: while a chain is open and under MaxDeltaChain, the
// state is encoded as changed label runs against the previous encoding
// plus the metadata block — no graph re-encode, so the bytes scale with
// label churn. The chain cap, a delta that fails to undercut half the
// last full payload, or any state with no prior encoding (first
// checkpoint, post-recovery) forces a full rebase, after which the
// superseded delta files are pruned. The journal is always truncated
// below the oldest retained FULL checkpoint only: chain recovery replays
// the journal across (base, tip] to rebuild the graph, so those records
// must survive until a rebase supersedes the chain.
func (s *Store) writeCheckpointState(st *ckptState) ckptResult {
	d := s.d
	chainOpen := d.cfg.MaxDeltaChain > 0 && d.prevLabels != nil && st.seq > d.tipSeq
	if chainOpen && d.chainLen < d.cfg.MaxDeltaChain {
		runs := labelDiffRuns(d.prevLabels, st.labels)
		payload := encodeDeltaCheckpoint(st, runs)
		if 2*len(payload) < d.fullBytes {
			if err := wal.WriteDeltaCheckpoint(ckptDir(d.dir), st.seq, d.tipSeq, payload); err != nil {
				return ckptResult{applied: st.applied, err: err}
			}
			d.prevLabels = append(d.prevLabels[:0], st.labels...)
			d.tipSeq = st.seq
			d.chainLen++
			return ckptResult{applied: st.applied, bytes: len(payload), incr: true}
		}
		// Too dense to pay off: fall through to a full rebase.
	}
	payload := encodeCheckpoint(st)
	if err := wal.WriteCheckpoint(ckptDir(d.dir), st.seq, payload); err != nil {
		return ckptResult{applied: st.applied, err: err}
	}
	oldest, err := wal.PruneCheckpoints(ckptDir(d.dir), d.cfg.KeepCheckpoints)
	if err != nil {
		return ckptResult{applied: st.applied, err: err}
	}
	// The new full supersedes every chain link at or below it.
	if err := wal.PruneDeltaCheckpointsBelow(ckptDir(d.dir), st.seq); err != nil {
		return ckptResult{applied: st.applied, err: err}
	}
	if d.jrn != nil {
		if _, err := d.jrn.TruncateBelow(oldest); err != nil {
			return ckptResult{applied: st.applied, err: err}
		}
	}
	res := ckptResult{applied: st.applied, bytes: len(payload), rebase: chainOpen}
	d.prevLabels = append(d.prevLabels[:0], st.labels...)
	d.tipSeq = st.seq
	d.chainLen = 0
	d.fullBytes = len(payload)
	return res
}

// finishCheckpoint lands the background checkpointer's report on the
// coordinator: bookkeeping on success, a recorded (non-fatal) error on
// failure — the store keeps serving and journaling either way, and a
// failed checkpoint just means recovery replays a longer tail.
func (s *Store) finishCheckpoint(res ckptResult) {
	s.d.pending = false
	s.ctr.CheckpointsPending.Store(0)
	s.d.ckptApplied = res.applied // success or not: re-arm at the next cadence point
	if res.err != nil {
		err := fmt.Errorf("serve: checkpoint: %w", res.err)
		s.lastErr.Store(&err)
		return
	}
	s.noteCheckpoint(res)
}

// noteCheckpoint folds one successful checkpoint install into the
// counters, splitting the incremental and rebase axes out of the totals.
func (s *Store) noteCheckpoint(res ckptResult) {
	s.ctr.Checkpoints.Add(1)
	s.ctr.CheckpointBytes.Add(int64(res.bytes))
	if res.incr {
		s.ctr.IncrCheckpointBytes.Add(int64(res.bytes))
	}
	if res.rebase {
		s.ctr.CheckpointRebases.Add(1)
	}
}

// checkpointNow captures, encodes and installs a checkpoint
// synchronously: the initial checkpoint, before start, and the final one,
// after drainAndExit stopped the shards. The live graph is encoded
// directly — no clone — since nothing else is running.
func (s *Store) checkpointNow() error {
	res := s.writeCheckpointState(s.captureState(false))
	if res.err != nil {
		return res.err
	}
	s.noteCheckpoint(res)
	s.d.ckptApplied = res.applied
	return nil
}

// finishDurable runs during drainAndExit, after the shards stopped: wait
// out an in-flight background checkpoint, write the graceful-shutdown
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

// Checkpoint payload layouts (all little-endian; the file headers, CRCs
// and covering sequences live in internal/wal). Both formats are the same
// metadata block wrapped around a label section — the one thing that
// differs — and only the full format carries the graph:
//
//	u16 version | u64 seq | u64 applied | i64 appliedAtRestab
//	i64 lastReconcile | u64 gen | u64 epoch | f64 baseline | u8 flags
//	u32 k | u32 shards | (shards+1) × u64 bounds
//	u32 n | labels: n × u32 (full)  or  label runs, appendRuns layout (delta)
//	i64 cross | i64 total   (composed counters, verified on recovery)
//	u32 affected | affected × u32 vertex
//	graph (graph.Weighted).EncodeBinary   (full only)
//
// A delta link holds the changed label runs against the previous encoding
// and NO graph — recovery rebuilds the graph by structurally replaying the
// journal across the chain (see Open), which is what makes its bytes scale
// with churn instead of |E|; the metadata block is re-encoded whole (it is
// tens of bytes).
//
// Version 2 says the graph, and the journal above it, follow the rule of
// a simple graph: one arc per neighbour, a re-added edge adding its weight.
// Version 1 had the same layout but was written while graph.Weighted kept
// parallel arcs; it is not read (see ErrCheckpointVersion).
const (
	ckptVersion = 2
	dckpVersion = 2

	flagWantRestab = 1 << 0
)

// ErrCheckpointVersion is wrapped by Open's error when a checkpoint or
// chain link in the data dir does not carry the current version.
var ErrCheckpointVersion = errors.New("serve: unsupported checkpoint version; " +
	"a version-1 data dir is rewritten as version 2 by opening it once with commit bdaf9be")

// ckptMeta is the metadata block both checkpoint formats carry: the
// checkpointed coordinator state at sequence seq, plus what a checkpoint
// derives from the rest of the store.
type ckptMeta struct {
	coordState
	seq          uint64
	applied      int64
	n            int // vertex (and label) count
	cross, total int64
	affected     []graph.VertexID
}

// ckptState is both the capture a checkpoint writes and the composed
// state a recovery reads: the metadata block, the full label array and
// the graph.
type ckptState struct {
	ckptMeta
	labels []int32
	w      *graph.Weighted
}

// captureState snapshots the coordinator-owned state into a ckptState —
// the barrier-time half of a background checkpoint. With clone set the
// graph is deep-copied (Weighted.Clone, a flat-array memcpy much cheaper
// than the binary encode) and labels/bounds/affected are copied, so the
// capture stays consistent while the shards resume; the synchronous
// paths (initial and final checkpoint) pass clone=false and alias the
// live state they exclusively own. An in-flight restabilization cannot
// be captured (it lives in a background clone), so it is folded into the
// wantRestab flag: a leader recovered from the capture runs it again once
// it journals, and a follower keeps the flag until the leader's relabel
// record arrives and clears it.
func (s *Store) captureState(clone bool) *ckptState {
	cross, total := s.ownedCounters()
	st := &ckptState{
		ckptMeta: ckptMeta{
			coordState: s.coordState,
			seq:        s.d.lastSeq,
			applied:    s.applied.Load(),
			n:          len(s.labels),
			cross:      cross,
			total:      total,
			affected:   make([]graph.VertexID, 0, len(s.affected)),
		},
		labels: s.labels,
		w:      s.w,
	}
	st.wantRestab = s.wantRestab || s.inflight
	for v := range s.affected {
		st.affected = append(st.affected, v)
	}
	slices.Sort(st.affected)
	if clone {
		st.bounds = append([]int(nil), s.bounds...)
		st.labels = append([]int32(nil), s.labels...)
		st.w = s.w.Clone()
	}
	return st
}

// appendMeta encodes the metadata block around the label section the
// caller supplies — the one codec behind both checkpoint formats.
func appendMeta(buf []byte, version uint16, m *ckptMeta, labelSection func([]byte) []byte) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, m.seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.applied))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.appliedAtRestab))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.lastReconcile))
	buf = binary.LittleEndian.AppendUint64(buf, m.gen)
	buf = binary.LittleEndian.AppendUint64(buf, m.epoch)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.baseline))
	var flags byte
	if m.wantRestab {
		flags |= flagWantRestab
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.k))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.bounds)-1))
	for _, b := range m.bounds {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.n))
	buf = labelSection(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.cross))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.total))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.affected)))
	for _, v := range m.affected {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// readMeta decodes the metadata block, calling labelSection (with the
// declared label count) where the format's label section sits. what names
// the format in errors; failures land in r.err, wrapping
// ErrCheckpointVersion when the block does not carry version.
func readMeta(r *ckptReader, what string, version uint16, labelSection func(n int)) (m ckptMeta) {
	if v := r.u16(); r.err == nil && v != version {
		r.fail("%s version %d, want %d: %w", what, v, version, ErrCheckpointVersion)
	}
	m.seq = r.u64()
	m.applied = int64(r.u64())
	m.appliedAtRestab = int64(r.u64())
	m.lastReconcile = int64(r.u64())
	m.gen = r.u64()
	m.epoch = r.u64()
	m.baseline = math.Float64frombits(r.u64())
	if flags := r.take(1); r.err == nil {
		if flags[0]&^flagWantRestab != 0 {
			r.fail("%s has unknown flags %#x", what, flags[0])
		}
		m.wantRestab = flags[0]&flagWantRestab != 0
	}
	m.k = int(int32(r.u32()))
	nShards := int(r.u32())
	if nShards < 1 || nShards > 1<<20 {
		r.fail("%s declares %d shards", what, nShards)
	}
	if raw := r.take(8 * (nShards + 1)); r.err == nil {
		m.bounds = make([]int, nShards+1)
		for i := range m.bounds {
			m.bounds[i] = int(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	m.n = int(r.u32())
	if m.n < 0 || m.n > graph.MaxVertices {
		r.fail("%s declares %d labels", what, m.n)
	}
	if r.err == nil {
		labelSection(m.n)
	}
	m.cross = int64(r.u64())
	m.total = int64(r.u64())
	nAffected := int(r.u32())
	if nAffected < 0 || nAffected > m.n {
		r.fail("%s declares %d affected vertices for %d labels", what, nAffected, m.n)
	}
	if raw := r.take(4 * nAffected); r.err == nil && nAffected > 0 {
		m.affected = make([]graph.VertexID, nAffected)
		for i := range m.affected {
			m.affected[i] = graph.VertexID(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	}
	return m
}

// encodeCheckpoint serializes a captured state into the full checkpoint
// payload.
func encodeCheckpoint(st *ckptState) []byte {
	buf := make([]byte, 0, 64+4*len(st.labels)+16*len(st.bounds))
	buf = appendMeta(buf, ckptVersion, &st.ckptMeta, func(b []byte) []byte {
		for _, l := range st.labels {
			b = binary.LittleEndian.AppendUint32(b, uint32(l))
		}
		return b
	})
	var gb bytes.Buffer
	gb.Grow(int(16*st.w.NumEdges()) + 4*st.w.NumVertices() + 32)
	// bytes.Buffer writes cannot fail.
	_ = st.w.EncodeBinary(&gb)
	return append(buf, gb.Bytes()...)
}

func decodeCheckpoint(payload []byte) (*ckptState, error) {
	r := &ckptReader{b: payload}
	st := &ckptState{}
	st.ckptMeta = readMeta(r, "checkpoint", ckptVersion, func(n int) {
		if raw := r.take(4 * n); r.err == nil {
			st.labels = make([]int32, n)
			for i := range st.labels {
				st.labels[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
			}
		}
	})
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

// encodeDeltaCheckpoint serializes a captured state as a chain link:
// runs are the label changes since the previous encoding.
func encodeDeltaCheckpoint(st *ckptState, runs []LabelRun) []byte {
	size := 64 + 8*len(st.bounds) + 4*len(st.affected)
	for _, r := range runs {
		size += 8 + 4*len(r.Labels)
	}
	return appendMeta(make([]byte, 0, size), dckpVersion, &st.ckptMeta, func(b []byte) []byte {
		return appendRuns(b, runs)
	})
}

// decodeDeltaCheckpoint parses a chain link: the metadata block at its
// sequence plus the label runs taking the previous encoding's labels to
// its own.
func decodeDeltaCheckpoint(payload []byte) (m ckptMeta, runs []LabelRun, err error) {
	r := &ckptReader{b: payload}
	m = readMeta(r, "delta checkpoint", dckpVersion, func(int) { runs = readRuns(r) })
	if r.err == nil && len(r.b) != 0 {
		r.fail("delta checkpoint has %d trailing bytes", len(r.b))
	}
	return m, runs, r.err
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

// applyCkptDelta overlays one chain link onto the composing state: apply
// its label runs, adopt its metadata block. The caller has structurally
// replayed the journal up to the link's sequence, so the graph's vertex
// count must already match the link's — a mismatch means the chain and
// journal disagree, which is corruption, not a recoverable tear.
func applyCkptDelta(st *ckptState, link wal.DeltaLink) error {
	m, runs, err := decodeDeltaCheckpoint(link.Payload)
	if err != nil {
		return fmt.Errorf("delta checkpoint %d: %w", link.Seq, err)
	}
	if m.seq != link.Seq {
		return fmt.Errorf("delta checkpoint file %d declares inner seq %d", link.Seq, m.seq)
	}
	if m.n != st.w.NumVertices() {
		return fmt.Errorf("delta checkpoint %d covers %d vertices, journal replay produced %d",
			link.Seq, m.n, st.w.NumVertices())
	}
	if m.n < len(st.labels) {
		return fmt.Errorf("delta checkpoint %d shrinks %d labels to %d", link.Seq, len(st.labels), m.n)
	}
	d := Delta{Seq: link.Seq, N: m.n, Runs: runs}
	if st.labels, err = d.Apply(st.labels); err != nil {
		return err
	}
	st.ckptMeta = m
	return nil
}

// applyStructural replays one journal record's effect on the graph
// TOPOLOGY only: labels, k, bounds and counters come from the chain-link
// overlays, so resizes and relabels are no-ops here (a link's labels
// already include them) and label seeding is skipped.
// Fast-path-eligible batches (fastPathEligible is graph-independent
// beyond the vertex count, so eligibility replays identically) add the
// same normalized edges the shard scan inserts (normArc), merging alike;
// live, each row receives its arcs in submission order (single owner
// shard, FIFO), so the rebuilt adjacency is byte-identical. Barrier-path
// batches go through Mutation.Apply, the same validate-then-apply the live
// barrier ran — a batch rejected live re-rejects identically, leaving the
// graph untouched.
func applyStructural(w *graph.Weighted, rec wal.Record) error {
	switch rec.Type {
	case wal.RecordResize, wal.RecordRelabel:
		return nil
	case wal.RecordMutation:
		m := rec.Mut
		if !fastPathEligible(m, w.NumVertices()) {
			// Rejected batches rejected live too, with the graph untouched;
			// the error stays observable via Err after the live replay phase
			// re-runs any post-tip records.
			_, _ = m.Apply(w)
			return nil
		}
		for _, e := range m.NewEdges {
			w.AddEdge(normArc(e))
		}
		return nil
	default:
		return fmt.Errorf("replaying unknown record type %d", rec.Type)
	}
}
