package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/wal"
)

// FollowerConfig tunes StartFollower.
type FollowerConfig struct {
	// Leader is the leader's base address (host:port or http:// URL).
	Leader string
	// Dir is the follower's own data directory: bootstrap installs the
	// leader's checkpoint here, and the follower journals + checkpoints
	// into it exactly like a leader, so a crashed follower resumes from
	// its own state instead of re-bootstrapping.
	Dir string
	// Store is the serve configuration. Its seed need not match the
	// leader's: the follower adopts every label change the leader
	// journaled, restabilizations and resizes alike, and computes none.
	Store serve.Config
	// Client is the HTTP client for checkpoint fetch + streaming (default
	// http.DefaultClient; tests inject the httptest client).
	Client *http.Client
	// Reconnect is the backoff between stream attempts (default 200ms).
	Reconnect time.Duration
}

// Follower tails a leader's journal into a read-only durable store, which
// adopts the leader's relabels and restabilizes nothing of its own. Reads
// (Store().Lookup) serve from the follower's own snapshots; AppliedSeq,
// LeaderSeq and Staleness expose the replication watermark; Promote seals
// the position into a new epoch and flips the store read-write, from which
// point it restabilizes as a leader does.
type Follower struct {
	cfg    FollowerConfig
	st     *serve.Store
	ctx    context.Context // cancels the tail loop
	cancel context.CancelFunc
	done   chan struct{}

	epoch      atomic.Uint64
	appliedSeq atomic.Uint64
	leaderSeq  atomic.Uint64
	caughtUpAt atomic.Int64 // unix nanos of the last applied==leader observation
	promoted   atomic.Bool
	fatal      atomic.Pointer[error]

	// lagHist tracks the apply lag (leader seq − applied seq, in
	// records) observed at each record application; the instantaneous
	// lag and wall-clock staleness are gauge funcs over the same atomics
	// (see registerMetrics).
	lagHist *metrics.Histogram

	closeOnce sync.Once
}

// fatalErr marks follower errors that retrying cannot fix (journal gap
// requiring re-bootstrap, storage fault, fencing); the tail loop stops on
// them, and Err surfaces them. Everything else is a transient stream
// failure: reconnect from appliedSeq.
type fatalErr struct{ err error }

func (e fatalErr) Error() string { return e.err.Error() }
func (e fatalErr) Unwrap() error { return e.err }

// StartFollower bootstraps (or resumes) a follower over cfg.Dir and
// starts tailing the leader. A dir with existing state resumes from its
// own latest checkpoint + journal tail — the leader checkpoint fetch only
// happens on first contact.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Reconnect <= 0 {
		cfg.Reconnect = 200 * time.Millisecond
	}
	cfg.Leader = normalizeLeader(cfg.Leader)

	f := &Follower{cfg: cfg, done: make(chan struct{})}
	f.ctx, f.cancel = context.WithCancel(context.Background())

	if !serve.HasState(cfg.Dir) {
		if err := f.bootstrap(); err != nil {
			return nil, err
		}
	}
	if e, ok, err := LoadEpoch(cfg.Dir); err != nil {
		return nil, err
	} else if ok {
		f.epoch.Store(e.Epoch)
	}
	st, err := serve.OpenReadOnly(cfg.Dir, cfg.Store)
	if err != nil {
		return nil, err
	}
	f.st = st
	f.appliedSeq.Store(st.JournalSeq())
	f.caughtUpAt.Store(time.Now().UnixNano())
	f.registerMetrics()
	go f.run()
	return f, nil
}

// registerMetrics publishes the replication watermark into the store's
// metric registry: instantaneous lag and staleness as computed gauges
// (sampled at exposition time) plus a histogram of the apply lag seen by
// each applied record, so catch-up bursts stay visible between scrapes.
func (f *Follower) registerMetrics() {
	reg := f.st.Metrics()
	reg.NewGaugeFunc("spinner_replica_lag_records",
		"Leader journal sequence minus the follower's applied sequence.",
		func() float64 {
			if lag := int64(f.leaderSeq.Load()) - int64(f.appliedSeq.Load()); lag > 0 {
				return float64(lag)
			}
			return 0
		})
	reg.NewGaugeFunc("spinner_replica_staleness_seconds",
		"Wall-clock time since the follower last observed itself caught up.",
		func() float64 { return f.Staleness().Seconds() })
	f.lagHist = reg.NewHistogram("spinner_replica_apply_lag_records",
		"Apply lag in journal records observed at each record application.",
		metrics.UnitNone)
}

func normalizeLeader(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// bootstrap installs the leader's latest checkpoint (and its epoch) into
// the follower's empty data dir.
func (f *Follower) bootstrap() error {
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, f.cfg.Leader+"/v1/replicate/checkpoint", nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("replica: fetching leader checkpoint: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: leader checkpoint: %s", resp.Status)
	}
	seq, err := strconv.ParseUint(resp.Header.Get("X-Checkpoint-Seq"), 10, 64)
	if err != nil {
		return fmt.Errorf("replica: leader checkpoint seq: %w", err)
	}
	epoch, err := strconv.ParseUint(resp.Header.Get("X-Replica-Epoch"), 10, 64)
	if err != nil {
		return fmt.Errorf("replica: leader epoch: %w", err)
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if err := wal.WriteCheckpoint(serve.CheckpointDir(f.cfg.Dir), seq, payload); err != nil {
		return err
	}
	if err := SaveEpoch(f.cfg.Dir, Epoch{Epoch: epoch, SealedSeq: 0}); err != nil {
		return err
	}
	f.epoch.Store(epoch)
	return nil
}

// run is the tail loop: stream, apply, reconnect on transient failure.
func (f *Follower) run() {
	defer close(f.done)
	first := true
	for {
		if f.ctx.Err() != nil || f.promoted.Load() {
			return
		}
		if !first {
			select {
			case <-f.ctx.Done():
				return
			case <-time.After(f.cfg.Reconnect):
			}
			if f.ctx.Err() != nil || f.promoted.Load() {
				return
			}
			f.st.Counters().ReplicaReconnects.Add(1)
		}
		first = false
		err := f.streamOnce()
		var fe fatalErr
		if errors.As(err, &fe) {
			if !f.promoted.Load() {
				f.fatal.Store(&fe.err)
			}
			return
		}
	}
}

// streamOnce opens one /v1/replicate stream at the applied position and
// applies frames until the connection drops. A partial frame at the end
// of the connection is discarded (it re-arrives whole on the next
// attempt), so a torn stream can never apply a torn group.
func (f *Follower) streamOnce() error {
	u := fmt.Sprintf("%s/v1/replicate?after_seq=%d", f.cfg.Leader, f.appliedSeq.Load())
	if e := f.epoch.Load(); e > 0 {
		u += "&epoch=" + strconv.FormatUint(e, 10)
	}
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, u, nil)
	if err != nil {
		return fatalErr{err}
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return fatalErr{fmt.Errorf("replica: leader journal no longer holds seq %d: wipe %s and re-bootstrap", f.appliedSeq.Load()+1, f.cfg.Dir)}
	case http.StatusConflict:
		return fatalErr{fmt.Errorf("replica: leader at epoch %s, follower fenced at %d", resp.Header.Get("X-Replica-Epoch"), f.epoch.Load())}
	default:
		return fmt.Errorf("replica: stream: %s", resp.Status)
	}

	var buf []byte
	chunk := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(chunk)
		if n > 0 {
			buf = append(buf, chunk[:n]...)
			off := 0
			for off < len(buf) {
				fr, consumed, err := DecodeFrame(buf[off:])
				if errors.Is(err, frame.ErrShort) {
					break // torn read; complete it with the next chunk
				}
				if err != nil {
					return err // corruption: drop the stream, re-request
				}
				if err := f.handleFrame(fr); err != nil {
					return err
				}
				off += consumed
			}
			// Compact the unread remainder to the front: slicing it forward
			// walks buf through its backing array and forces regrows.
			buf = buf[:copy(buf, buf[off:])]
		}
		if err != nil {
			return err // io.EOF and friends: reconnect from appliedSeq
		}
	}
}

// handleFrame fences, applies and advances the watermark for one stream
// frame.
func (f *Follower) handleFrame(fr Frame) error {
	e := f.epoch.Load()
	if e == 0 && fr.Kind == FrameHandshake {
		// First contact with no persisted epoch (a pre-replication data
		// dir): adopt the leader's.
		if err := SaveEpoch(f.cfg.Dir, Epoch{Epoch: fr.Epoch}); err != nil {
			return fatalErr{err}
		}
		f.epoch.Store(fr.Epoch)
		e = fr.Epoch
	}
	if fr.Epoch != e {
		f.st.Counters().ReplicaFencedFrames.Add(1)
		return fatalErr{fmt.Errorf("replica: frame from epoch %d, fenced at %d", fr.Epoch, e)}
	}
	if fr.Kind == FrameRecords {
		if err := f.applyRecords(fr.Records); err != nil {
			return err
		}
	}
	if s := fr.LeaderSeq; s > f.leaderSeq.Load() {
		f.leaderSeq.Store(s)
	}
	if f.appliedSeq.Load() >= f.leaderSeq.Load() {
		f.caughtUpAt.Store(time.Now().UnixNano())
	}
	return nil
}

// applyRecords pushes one frame's leader journal records through the
// store's ApplyRecord — the same entry recovery replays the journal
// through (the bit-identity contract), relabels adopted as the leader
// journaled them — then quiesces once and verifies the follower's own
// journal stayed sequence-aligned with the leader's. A frame that fails
// partway still lands and advances through its last enqueued record, so
// a reconnect never applies a record twice.
func (f *Follower) applyRecords(b []byte) error {
	first := f.appliedSeq.Load()
	last := first
	err := wal.DecodeRecords(b, func(rec wal.Record) error {
		if rec.Seq <= last {
			return nil // overlap after a reconnect; already applied
		}
		if rec.Seq > last+1 {
			return fmt.Errorf("replica: stream gap: record %d, want %d", rec.Seq, last+1)
		}
		if err := f.st.ApplyRecord(rec); err != nil {
			return fatalErr{err}
		}
		last = rec.Seq
		if lag := int64(f.leaderSeq.Load()) - int64(rec.Seq); lag >= 0 {
			f.lagHist.RecordValue(lag)
		}
		return nil
	})
	if last == first {
		return err
	}
	_ = f.st.Quiesce() // batch errors re-reject as at the leader; they stay in Err
	if f.st.Degraded() {
		return fatalErr{errors.New("replica: follower storage degraded")}
	}
	if js := f.st.JournalSeq(); js != last {
		return fatalErr{fmt.Errorf("replica: journal misaligned: local seq %d after applying leader seq %d", js, last)}
	}
	f.appliedSeq.Store(last)
	f.st.Counters().ReplicaRecordsApplied.Add(int64(last - first))
	return err
}

// Store returns the follower's serving store (read-only until Promote).
func (f *Follower) Store() *serve.Store { return f.st }

// AppliedSeq returns the last leader journal sequence applied locally.
func (f *Follower) AppliedSeq() uint64 { return f.appliedSeq.Load() }

// LeaderSeq returns the leader's last advertised journal sequence.
func (f *Follower) LeaderSeq() uint64 { return f.leaderSeq.Load() }

// Epoch returns the node's current fencing epoch.
func (f *Follower) Epoch() uint64 { return f.epoch.Load() }

// Promoted reports whether Promote has run.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// Err returns the fatal replication error that stopped the tail loop, if
// any (lookups keep serving the last applied state regardless).
func (f *Follower) Err() error {
	if p := f.fatal.Load(); p != nil {
		return *p
	}
	return nil
}

// Staleness reports how long ago the follower last observed itself caught
// up with the leader. It grows during lag, partition from the leader, or
// leader death — the watermark -max-staleness bounds.
func (f *Follower) Staleness() time.Duration {
	return time.Duration(time.Now().UnixNano() - f.caughtUpAt.Load())
}

// Promote seals the follower's applied journal position into a new epoch
// and flips the store read-write. The epoch is bumped in memory first —
// instantly fencing any in-flight frames from the deposed leader — then
// the tail loop is stopped, the epoch record persisted, and only then do
// external writes open. Safe to call once; later calls return the sealed
// epoch unchanged.
func (f *Follower) Promote() (Epoch, error) {
	if f.promoted.Swap(true) {
		e, _, err := LoadEpoch(f.cfg.Dir)
		return e, err
	}
	f.epoch.Add(1)
	f.cancel()
	<-f.done
	e := Epoch{Epoch: f.epoch.Load(), SealedSeq: f.appliedSeq.Load()}
	if err := SaveEpoch(f.cfg.Dir, e); err != nil {
		return Epoch{}, fmt.Errorf("replica: sealing epoch: %w", err)
	}
	f.st.SetReadOnly(false)
	return e, nil
}

// Close stops the tail loop and closes the store (final checkpoint
// included, unless degraded).
func (f *Follower) Close() error {
	var err error
	f.closeOnce.Do(func() {
		f.cancel()
		<-f.done
		err = f.st.Close()
	})
	return err
}
