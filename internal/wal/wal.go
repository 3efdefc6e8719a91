// Package wal is the durability layer under the serving stack: a
// segmented, CRC-framed write-ahead journal of graph mutations and
// relabelings, plus atomically-installed checkpoint files. The
// serving layer (internal/serve) journals every accepted entry before
// applying it and periodically checkpoints its composed state; after a
// crash, recovery loads the latest valid checkpoint and replays the
// journal tail, so a maintained partitioning — the thing the paper argues
// is too expensive to recompute from scratch — survives process death.
//
// # Record types
//
// A journal holds two record types. RecordMutation is a graph.Mutation
// batch as it was submitted. RecordRelabel is a label change the leader
// computed once and journaled before applying it — a restabilization's
// merge (§III-D) or an elastic resize's immediate relabel (§III-E); a
// follower or a replaying node adopts it rather than recomputing it. Its
// body is opaque here: the serving layer encodes it (serve.EncodeDelta).
// Type byte 2, which once held a resize's new k alone, is an unknown
// type.
//
// # Journal format
//
// A journal is a directory of segment files named wal-%016x.log, where
// the hex field is the sequence number of the first record the segment
// holds. Records are framed as
//
//	u32 payload length | u32 CRC-32C(payload) | payload
//	payload = u64 sequence | u8 record type | body
//
// with all integers little-endian. Sequence numbers are assigned by
// Append, start at 1, and increase by exactly 1 per record across segment
// boundaries — a gap or regression is corruption, not a torn write.
// Segments rotate once they pass Options.SegmentBytes, and every process
// start opens a fresh segment, so already-synced data is never rewritten.
//
// # Torn writes vs corruption
//
// Replay distinguishes the two failure shapes a log can have:
//
//   - A bad frame at the tail of the LAST segment — short header, short
//     payload, or CRC mismatch — is a torn write from the crash. Replay
//     truncates the segment at the last good frame and reports success:
//     those bytes were never acknowledged as durable.
//   - A bad frame anywhere else (an earlier segment, or a CRC-valid
//     payload that fails to decode, or a sequence gap) is real
//     mid-log corruption and fails recovery loudly. Silent truncation
//     there would drop acknowledged mutations.
//
// # Fsync policy
//
// SyncAlways fsyncs after every append (every acknowledged record
// survives OS death), SyncEvery fsyncs on a background interval (bounded
// loss window, near-SyncNever throughput), SyncNever leaves flushing to
// the OS (process crashes lose nothing — the page cache survives — but
// power loss can). Rotation and Close always sync regardless of policy.
//
// # Group commit
//
// The cost of SyncAlways is the disk barrier, not the framing, so the
// journal amortizes it two ways. AppendGroup frames any number of records
// into one staging buffer and lands them with a single write syscall and
// (under SyncAlways) a single fsync — the serving coordinator drains its
// whole pending mutation log into one group, so the barrier is paid per
// burst, not per record. Independently, concurrent AppendGroup callers
// combine fsyncs: the first caller needing durability becomes the sync
// leader and fsyncs once for every record written before the sync
// started, while later callers park on a condition variable; when the
// leader finishes it wakes all waiters, whose records are either already
// covered (they return) or lead the next combined sync. Records are never
// acknowledged before the fsync that covers them completes, so the
// durability guarantee of SyncAlways is unchanged — only its price.
//
// # Replaying mutations
//
// A record holds a batch as it was submitted; what the batch does to the
// graph is graph.Mutation's rule when it is replayed. graph.Weighted keeps
// one arc per neighbour, so a record that re-adds an existing edge replays
// to the one arc with the weights summed, and a removal removes that merged
// edge with all its weight.
package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	"repro/internal/graph"
)

// RecordType discriminates journal payloads.
type RecordType uint8

const (
	// RecordMutation is a graph.Mutation batch.
	RecordMutation RecordType = 1
	// RecordRelabel is a label change (a merge or a resize), body opaque.
	RecordRelabel RecordType = 3
)

// Record is one journaled entry: a mutation batch or a relabel.
type Record struct {
	Seq     uint64
	Type    RecordType
	Mut     *graph.Mutation // RecordMutation
	Relabel []byte          // RecordRelabel
	Bytes   int             // framed size in the journal, set when read back
}

// Policy selects when appended records are fsynced.
type Policy int

const (
	// SyncNever leaves flushing to the OS page cache.
	SyncNever Policy = iota
	// SyncEvery fsyncs on a background interval (Options.SyncInterval).
	SyncEvery
	// SyncAlways fsyncs after every append.
	SyncAlways
)

// String returns the flag spelling of p.
func (p Policy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncEvery:
		return "interval"
	case SyncAlways:
		return "always"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses the -fsync flag spellings never|interval|always.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "never":
		return SyncNever, nil
	case "interval":
		return SyncEvery, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want never|interval|always)", s)
}

// Options tunes a Journal.
type Options struct {
	// SegmentBytes rotates to a new segment file once the active one
	// passes this size. Default 4 MiB.
	SegmentBytes int64
	// Sync is the fsync policy. Default SyncNever.
	Sync Policy
	// SyncInterval is the background fsync period under SyncEvery.
	// Default 50ms.
	SyncInterval time.Duration
	// AppendsCounter, BytesCounter and SyncsCounter, when non-nil, are
	// incremented alongside the journal's internal counters so callers
	// (metrics.ServeCounters) see journal traffic without polling.
	AppendsCounter, BytesCounter, SyncsCounter *atomic.Int64
}

func (o *Options) normalize() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
}

const (
	frameHeader = 8 // u32 length + u32 crc
	recHeader   = 9 // u64 seq + u8 type
	// MaxRecordBytes bounds a single record; a length prefix past it is
	// treated as a bad frame rather than an allocation request.
	MaxRecordBytes = 1 << 28

	segPrefix = "wal-"
	segSuffix = ".log"
)

// fsyncFile is the fsync used by the combined-sync path
// (ensureDurableLocked); a package variable so tests can gate it to
// deterministically observe leader/follower combining, and so
// InjectFaults can make it fail. Rotation and Close sync directly — they
// are not part of the combining protocol.
var fsyncFile = (*os.File).Sync

// writeFile is the segment write used by AppendGroup; a package variable
// (the write-error twin of fsyncFile) so InjectFaults can fail or
// short-count journal writes deterministically.
var writeFile = (*os.File).Write

// InjectFaults swaps the journal append-write and combined-fsync seams
// for the given implementations and returns a func that restores the
// real ones. A nil write or sync leaves that seam untouched. Test-only:
// the seams are package-global, so callers must restore before any
// journal they do not intend to fault appends, and must not inject from
// concurrent tests.
func InjectFaults(write func(*os.File, []byte) (int, error), sync func(*os.File) error) (restore func()) {
	prevWrite, prevSync := writeFile, fsyncFile
	if write != nil {
		writeFile = write
	}
	if sync != nil {
		fsyncFile = sync
	}
	return func() { writeFile, fsyncFile = prevWrite, prevSync }
}

// Journal is an append-only segmented log. Appends are safe for
// concurrent use; concurrent callers under SyncAlways share fsyncs (see
// the group-commit section of the package comment). In the serving layer
// the coordinator goroutine is the only writer and amortization comes
// from AppendGroup instead.
type Journal struct {
	dir string
	opt Options

	mu       sync.Mutex
	syncCond *sync.Cond // signals sync completion (synced advance, err, leader exit)
	syncing  bool       // a leader fsync is in flight with mu released
	synced   uint64     // highest sequence number known durable
	f        *os.File
	segBytes int64
	nextSeq  uint64
	buf      []byte // frame staging buffer, reused across appends
	err      error  // sticky I/O error; all appends fail after it

	appends atomic.Int64
	bytes   atomic.Int64
	syncs   atomic.Int64
	retain  atomic.Uint64 // lowest seq a connected follower still needs; 0 = none

	stop chan struct{} // closes the background syncer
	done chan struct{}
}

// Open creates (if needed) the journal directory and starts a fresh
// segment whose first record will carry sequence number nextSeq. Existing
// segments are left in place for Replay and TruncateBelow; a leftover
// segment with the same starting sequence (a crash before any append) is
// overwritten — its records, had any been valid, would have advanced
// nextSeq past it during Replay.
func Open(dir string, nextSeq uint64, opt Options) (*Journal, error) {
	if nextSeq == 0 {
		return nil, fmt.Errorf("wal: sequence numbers start at 1")
	}
	opt.normalize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j := &Journal{dir: dir, opt: opt, nextSeq: nextSeq, synced: nextSeq - 1}
	j.syncCond = sync.NewCond(&j.mu)
	if err := j.openSegment(); err != nil {
		return nil, err
	}
	if opt.Sync == SyncEvery {
		j.stop = make(chan struct{})
		j.done = make(chan struct{})
		go j.syncLoop()
	}
	return j, nil
}

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix)
}

// openSegment opens the segment that will hold j.nextSeq, truncating any
// leftover file of the same name, and durably records the new directory
// entry. Callers hold j.mu (or own j exclusively).
func (j *Journal) openSegment() error {
	f, err := os.OpenFile(filepath.Join(j.dir, segName(j.nextSeq)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	j.f = f
	j.segBytes = 0
	return syncDir(j.dir)
}

// GroupEntry is one record of a group append: a mutation batch when Mut
// is non-nil, otherwise a relabel whose body is Relabel.
type GroupEntry struct {
	Mut     *graph.Mutation
	Relabel []byte
}

// AppendGroup journals a group of records with consecutive sequence
// numbers (the first is returned), framed into one staging buffer and
// written with a single syscall; under SyncAlways the whole group rides
// one fsync — the group-commit write path. The group is durable as a
// unit when AppendGroup returns: either every record was acknowledged or
// none was written. n is the total encoded size. An empty group is a
// no-op.
func (j *Journal) AppendGroup(entries []GroupEntry) (firstSeq uint64, n int, err error) {
	if len(entries) == 0 {
		return 0, 0, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return 0, 0, j.err
	}

	// Stage every frame back to back, then write them with one syscall:
	// per record a header placeholder, payload header, body. Staging and
	// rotation run entirely under j.mu — EXCEPT when rotation must wait
	// out an in-flight combined sync, which releases the mutex: another
	// appender may then reuse the staging buffer and claim our sequence
	// numbers, so after such a wait the whole group is re-staged from the
	// fresh j.nextSeq rather than rotated on stale state.
	var buf []byte
	for {
		if j.err != nil {
			return 0, 0, j.err
		}
		firstSeq = j.nextSeq
		buf = j.buf[:0]
		for i := range entries {
			off := len(buf)
			buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // length+crc, patched below
			buf = binary.LittleEndian.AppendUint64(buf, firstSeq+uint64(i))
			if m := entries[i].Mut; m != nil {
				buf = append(buf, byte(RecordMutation))
				buf = graph.AppendMutationBinary(buf, m)
			} else {
				buf = append(buf, byte(RecordRelabel))
				buf = append(buf, entries[i].Relabel...)
			}
			payload := buf[off+frameHeader:]
			if len(payload) > MaxRecordBytes {
				j.buf = buf[:0]
				return 0, 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", len(payload))
			}
			binary.LittleEndian.PutUint32(buf[off:], uint32(len(payload)))
			binary.LittleEndian.PutUint32(buf[off+4:], frame.Checksum(payload))
		}
		j.buf = buf
		if j.segBytes == 0 || j.segBytes+int64(len(buf)) <= j.opt.SegmentBytes {
			break // fits the active segment
		}
		if j.syncing {
			for j.syncing {
				j.syncCond.Wait()
			}
			continue // mutex was released: restage before deciding again
		}
		if err := j.rotateLocked(); err != nil {
			j.err = err
			return 0, 0, err
		}
		break // fresh segment; the staged frames are still valid
	}
	if n, err := writeFile(j.f, buf); err != nil || n != len(buf) {
		// A failed or short write leaves the segment tail in an unknown
		// state; poison the journal so no later append can frame records
		// after bytes that may be torn.
		if err == nil {
			err = io.ErrShortWrite
		}
		j.err = err
		return 0, 0, err
	}
	j.segBytes += int64(len(buf))
	j.nextSeq += uint64(len(entries))
	if j.opt.Sync == SyncAlways {
		if err := j.ensureDurableLocked(j.nextSeq - 1); err != nil {
			return 0, 0, err
		}
	}
	j.appends.Add(int64(len(entries)))
	j.bytes.Add(int64(len(buf)))
	if j.opt.AppendsCounter != nil {
		j.opt.AppendsCounter.Add(int64(len(entries)))
	}
	if j.opt.BytesCounter != nil {
		j.opt.BytesCounter.Add(int64(len(buf)))
	}
	return firstSeq, len(buf), nil
}

// ensureDurableLocked blocks until every record with sequence <= seq is
// fsynced, combining concurrent callers into shared fsyncs: the first
// waiter becomes the sync leader and fsyncs once for everything written
// before the sync started (releasing j.mu for the fsync itself, so
// writers keep appending into the group the NEXT sync will cover); later
// waiters park on the condition variable and are woken when the leader
// finishes — either covered, or leading the next combined sync.
// Callers hold j.mu.
func (j *Journal) ensureDurableLocked(seq uint64) error {
	for {
		// Durability first, THEN the sticky error: a caller whose records
		// an earlier combined sync already covered must be acknowledged
		// even if another appender poisoned the journal afterwards —
		// reporting a durably-synced group as failed would let recovery
		// resurrect a batch its writer was told was rejected.
		if j.synced >= seq {
			return nil
		}
		if j.err != nil {
			return j.err
		}
		if j.syncing {
			j.syncCond.Wait()
			continue
		}
		j.syncing = true
		f, mark := j.f, j.nextSeq-1
		j.mu.Unlock()
		err := fsyncFile(f)
		j.mu.Lock()
		j.syncing = false
		j.syncCond.Broadcast()
		if err != nil {
			if j.err == nil {
				j.err = err
			}
			return err
		}
		j.countSyncLocked()
		if mark > j.synced {
			j.synced = mark
		}
	}
}

// rotateLocked seals the active segment (sync + close) and opens the
// next. Callers hold j.mu and must have checked that no combined sync is
// in flight (j.syncing false); the mutex is never released here, so no
// other appender can interleave with the rotation.
func (j *Journal) rotateLocked() error {
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.countSyncLocked()
	if j.nextSeq-1 > j.synced {
		j.synced = j.nextSeq - 1 // everything written so far is in this file
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	return j.openSegment()
}

func (j *Journal) countSyncLocked() {
	j.syncs.Add(1)
	if j.opt.SyncsCounter != nil {
		j.opt.SyncsCounter.Add(1)
	}
}

// Sync makes every appended record durable regardless of policy,
// sharing an in-flight combined fsync when one covers the tail.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	return j.ensureDurableLocked(j.nextSeq - 1)
}

func (j *Journal) syncLoop() {
	defer close(j.done)
	t := time.NewTicker(j.opt.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			j.mu.Lock()
			if j.err == nil && j.synced < j.nextSeq-1 {
				_ = j.ensureDurableLocked(j.nextSeq - 1) // failure is sticky in j.err
			}
			j.mu.Unlock()
		case <-j.stop:
			return
		}
	}
}

// Close stops the background syncer, flushes a final fsync of the active
// segment, and closes it. The journal is unusable afterwards.
func (j *Journal) Close() error {
	if j.stop != nil {
		close(j.stop)
		<-j.done
		j.stop = nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.syncing {
		j.syncCond.Wait() // an in-flight combined sync still holds the file
	}
	if j.f == nil {
		return j.err
	}
	err := j.err
	if err == nil {
		if err = j.f.Sync(); err == nil {
			j.countSyncLocked()
			if j.nextSeq-1 > j.synced {
				j.synced = j.nextSeq - 1
			}
		}
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	if j.err == nil {
		j.err = fmt.Errorf("wal: journal closed")
	}
	return err
}

// Err returns the journal's sticky I/O error: non-nil once an append
// write or fsync has failed (every later append fails with it) or after
// Close. A storage-layer caller uses it to tell a poisoned journal —
// fail stop, recover via Replay — from a per-call rejection such as an
// oversized record, which does not poison.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// NextSeq returns the sequence number the next append will carry.
func (j *Journal) NextSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq
}

// Appends, AppendedBytes and Syncs report lifetime journal traffic.
func (j *Journal) Appends() int64       { return j.appends.Load() }
func (j *Journal) AppendedBytes() int64 { return j.bytes.Load() }
func (j *Journal) Syncs() int64         { return j.syncs.Load() }

// SetRetention establishes a truncation floor: records with sequence
// numbers >= floor stay on disk regardless of what TruncateBelow is asked
// to reclaim. Replication uses it to pin the journal tail a connected
// follower has not consumed yet — without the floor, a checkpoint landing
// between a follower's reads would reclaim segments the follower still
// needs and force a full re-bootstrap. floor 0 clears the pin. Safe for
// concurrent use with appends and truncation.
func (j *Journal) SetRetention(floor uint64) { j.retain.Store(floor) }

// TruncateBelow deletes every sealed segment whose records all have
// sequence numbers <= seq — the space-reclamation step after a checkpoint
// at seq. The bound is clamped below any retention floor set by
// SetRetention, so segments a connected follower still needs survive the
// checkpoint that would otherwise cover them. The active segment is never
// deleted. Returns the number of segments removed.
func (j *Journal) TruncateBelow(seq uint64) (int, error) {
	if floor := j.retain.Load(); floor > 0 && floor <= seq {
		seq = floor - 1
	}
	j.mu.Lock()
	active := j.nextSeq // segments starting at or after this are unsealed
	j.mu.Unlock()
	segs, err := listSegments(j.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i := 0; i+1 < len(segs); i++ {
		// Segment i covers [segs[i].first, segs[i+1].first-1].
		if segs[i+1].first > seq+1 || segs[i].first >= active {
			break
		}
		if err := os.Remove(segs[i].path); err != nil {
			return removed, err
		}
		removed++
	}
	if removed > 0 {
		if err := syncDir(j.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

type segment struct {
	first uint64
	path  string
}

// scanSeqFiles lists the files in dir named prefix+%016x+suffix, sorted
// ascending by the parsed sequence field — the shared directory scan
// behind journal segments and checkpoints. Files that do not match the
// naming scheme (including leftover temp files) are ignored; an absent
// directory is an empty listing.
func scanSeqFiles(dir, prefix, suffix string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []segment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), "%016x", &seq); err != nil {
			continue
		}
		out = append(out, segment{first: seq, path: filepath.Join(dir, name)})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].first < out[k].first })
	return out, nil
}

// listSegments returns the journal's segment files sorted by first
// sequence number.
func listSegments(dir string) ([]segment, error) {
	return scanSeqFiles(dir, segPrefix, segSuffix)
}

// Replay scans the journal in dir in sequence order, invoking fn for
// every record with Seq > afterSeq, and returns the sequence number the
// next append should carry. A torn tail — a bad frame at the end of the
// last segment — is truncated in place and tolerated; any other framing,
// decoding or sequencing failure is returned as corruption. An empty or
// absent journal replays nothing.
func Replay(dir string, afterSeq uint64, fn func(Record) error) (nextSeq uint64, err error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	nextSeq = afterSeq + 1
	var expect uint64 // next sequence we must see; 0 until the first record
	for i, seg := range segs {
		last := i == len(segs)-1
		stop, err := replaySegment(seg, last, afterSeq, &expect, fn)
		if err != nil {
			return 0, err
		}
		if stop {
			break
		}
	}
	if expect > nextSeq {
		nextSeq = expect
	}
	if expect != 0 && expect < nextSeq {
		// The journal ends below afterSeq: the checkpoint was durably
		// installed but the journal pages behind it died with the OS (an
		// fsync=never/interval power loss). Every surviving record is
		// already reflected in the checkpoint, so nothing is lost — but
		// appends must resume at afterSeq+1, not reuse covered sequence
		// numbers (the next recovery would skip them as replayed), and the
		// stale records would trip the continuity check across the gap.
		// Drop the fully-covered segments so the journal restarts cleanly.
		for _, seg := range segs {
			if err := os.Remove(seg.path); err != nil {
				return 0, fmt.Errorf("wal: dropping checkpoint-covered segment: %w", err)
			}
		}
		if err := syncDir(dir); err != nil {
			return 0, err
		}
	}
	return nextSeq, nil
}

// replaySegment scans one segment file. It updates *expect to the
// sequence following the last valid record and reports stop=true when a
// torn tail was truncated (no later segment may follow it).
func replaySegment(seg segment, last bool, afterSeq uint64, expect *uint64, fn func(Record) error) (stop bool, err error) {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return false, err
	}
	off := 0
	for off < len(data) {
		frameLen, payload, ok := readFrame(data[off:])
		if !ok {
			if !last {
				return false, fmt.Errorf("wal: corrupt frame at %s+%d (not the last segment)", seg.path, off)
			}
			// Torn tail: drop the bytes that never finished writing so
			// the next process start never re-reads them.
			if err := os.Truncate(seg.path, int64(off)); err != nil {
				return false, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, err)
			}
			return true, nil
		}
		rec, err := decodePayload(payload)
		if err != nil {
			// The CRC matched, so these bytes were written in full; a
			// payload that still fails to decode is corruption (or a
			// version skew), never a torn write.
			return false, fmt.Errorf("wal: %s+%d: %w", seg.path, off, err)
		}
		if *expect == 0 {
			if rec.Seq > afterSeq+1 {
				return false, fmt.Errorf("wal: journal starts at seq %d, checkpoint covers through %d: gap", rec.Seq, afterSeq)
			}
		} else if rec.Seq != *expect {
			return false, fmt.Errorf("wal: %s+%d: seq %d, want %d", seg.path, off, rec.Seq, *expect)
		}
		*expect = rec.Seq + 1
		if rec.Seq > afterSeq {
			if err := fn(rec); err != nil {
				return false, err
			}
		}
		off += frameLen
	}
	return false, nil
}

// readFrame parses one frame from b, returning its total length and
// payload. ok=false means the frame is unreadable (short or CRC-bad) —
// the torn-tail shape.
func readFrame(b []byte) (frameLen int, payload []byte, ok bool) {
	if len(b) < frameHeader {
		return 0, nil, false
	}
	n := int(binary.LittleEndian.Uint32(b))
	crc := binary.LittleEndian.Uint32(b[4:])
	if n < recHeader || n > MaxRecordBytes || len(b) < frameHeader+n {
		return 0, nil, false
	}
	payload = b[frameHeader : frameHeader+n]
	if frame.Checksum(payload) != crc {
		return 0, nil, false
	}
	return frameHeader + n, payload, true
}

// decodePayload decodes a CRC-valid payload into a Record.
func decodePayload(p []byte) (Record, error) {
	rec := Record{Seq: binary.LittleEndian.Uint64(p), Type: RecordType(p[8]), Bytes: frameHeader + len(p)}
	body := p[recHeader:]
	switch rec.Type {
	case RecordMutation:
		m, err := graph.DecodeMutationBinary(body)
		if err != nil {
			return Record{}, err
		}
		rec.Mut = m
		return rec, nil
	case RecordRelabel:
		// A copy: the caller's buffer may be reused (a follower's stream).
		rec.Relabel = append([]byte{}, body...)
		return rec, nil
	}
	return Record{}, fmt.Errorf("wal: unknown record type %d", rec.Type)
}

// syncDir fsyncs a directory so renames and creates within it are
// durable (best-effort on platforms where directories reject fsync).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return err
	}
	return nil
}
