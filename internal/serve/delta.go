package serve

// The delta plane: every publication event the coordinator goes through
// emits a compact Delta record — publication sequence, epoch/generation,
// the changed vertex→label runs, and the integer cut counters — into a bounded in-memory ring with a compaction floor. One
// representation, two consumers: the /v1/watch change feed streams the
// ring to HTTP clients so routers and caches can track label movement
// without re-pulling snapshots (the paper's "maintain, don't recompute"
// story applied to the serving edge), and the journal records each
// restabilization merge and each resize's relabel as the EncodeDelta
// payload of its label runs (a wal.RecordRelabel), so the record's size
// scales with churn, not |E|.
//
// Sequencing: delta sequence numbers are dense, 1-based, and per-process
// (they restart when the store restarts — a consumer holding a seq from a
// previous incarnation gets an explicit 410-style "reset" from the watch
// endpoint and resyncs). The first delta of every store is a baseline
// carrying the full label map, so a consumer that applies deltas from
// seq 0 reconstructs the exact composed labeling; once the ring compacts
// past seq 1, such a consumer is told to resync via a full lookup.
//
// Label truth: the coordinator emits every delta from its own state, in
// event order, right after the snapshot it describes is published.
// Counter-only deltas (coalesced runs of edge additions, which never
// relabel, and the exact check's repair of drifted counters) carry no
// runs; consumers must treat Cross/Total as hints and the runs as the
// authoritative label stream.

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	"repro/internal/graph"
)

// LabelRun is one contiguous block of changed labels: vertex Start+i has
// label Labels[i] after the delta applies.
type LabelRun struct {
	Start  int
	Labels []int32
}

// Delta is one change-feed record. The zero value of K/N means
// "unchanged" (counter-only deltas). A Delta and everything it references
// is immutable after publication.
type Delta struct {
	// Seq is the publication sequence: dense, 1-based, per-process.
	Seq uint64
	// Epoch and Gen mirror the store's restabilization epoch and resize
	// generation at emission.
	Epoch uint64
	Gen   uint64
	// K is the partition count after this delta (0 = unchanged).
	K int
	// N is the vertex count after this delta (0 = unchanged).
	N int
	// Runs are the changed label runs, ascending and non-overlapping.
	Runs []LabelRun
	// Cross and Total are the composed integer cut counters.
	Cross, Total int64
}

// Apply overlays d onto a label map being reconstructed from the feed,
// growing it to d.N first, and returns the (possibly re-allocated) slice.
// Applying every delta from seq 1 in order yields the store's composed
// labels. A run outside the grown bounds means the consumer missed a
// delta (or the stream is corrupt): resync.
func (d *Delta) Apply(labels []int32) ([]int32, error) {
	if d.N > len(labels) {
		grown := make([]int32, d.N)
		copy(grown, labels)
		labels = grown
	}
	for _, r := range d.Runs {
		if r.Start < 0 || r.Start+len(r.Labels) > len(labels) {
			return labels, fmt.Errorf("serve: delta %d run [%d,%d) outside %d labels",
				d.Seq, r.Start, r.Start+len(r.Labels), len(labels))
		}
		copy(labels[r.Start:], r.Labels)
	}
	return labels, nil
}

// RunVertices totals the vertices covered by the delta's runs.
func (d *Delta) RunVertices() int {
	n := 0
	for _, r := range d.Runs {
		n += len(r.Labels)
	}
	return n
}

// Delta payload layout (little-endian; framing/CRC belongs to the
// transport — internal/api's watch frames wrap this payload, and
// internal/wal's journal frames it as a RecordRelabel body):
//
//	u16 version | u64 seq | u64 epoch | u64 gen | u32 k | u32 n
//	i64 cross | i64 total
//	u32 nruns | per run: u32 start | u32 len | len × u32 labels
//
// Every byte is read: whatever decodes re-encodes to the same payload.
// Version 1 carried a shard-bounds section before the runs, dead since the
// store had one writer; it is not read.
const deltaVersion = 2

// EncodeDelta serializes d into its binary payload.
func EncodeDelta(d *Delta) []byte {
	size := 2 + 8*3 + 4*2 + 8*2 + 4
	for _, r := range d.Runs {
		size += 8 + 4*len(r.Labels)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint16(buf, deltaVersion)
	buf = binary.LittleEndian.AppendUint64(buf, d.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, d.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, d.Gen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.K))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.N))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Cross))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Total))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Runs)))
	for _, r := range d.Runs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Start))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Labels)))
		for _, l := range r.Labels {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
		}
	}
	return buf
}

// readRuns decodes a delta's label-run section through a ckptReader.
func readRuns(r *ckptReader) []LabelRun {
	nRuns := int(r.u32())
	if r.err != nil {
		return nil
	}
	if nRuns < 0 || nRuns > graph.MaxVertices {
		r.err = fmt.Errorf("payload declares %d label runs", nRuns)
		return nil
	}
	runs := make([]LabelRun, 0, min(nRuns, 1024))
	for i := 0; i < nRuns; i++ {
		start := int(r.u32())
		length := int(r.u32())
		if r.err != nil {
			return nil
		}
		if start < 0 || length < 0 || length > graph.MaxVertices || start > graph.MaxVertices-length {
			r.err = fmt.Errorf("label run [%d,%d) out of range", start, start+length)
			return nil
		}
		raw := r.take(4 * length)
		if r.err != nil {
			return nil
		}
		labels := make([]int32, length)
		for j := range labels {
			labels[j] = int32(binary.LittleEndian.Uint32(raw[4*j:]))
		}
		runs = append(runs, LabelRun{Start: start, Labels: labels})
	}
	return runs
}

// DecodeDelta parses a delta payload produced by EncodeDelta.
func DecodeDelta(payload []byte) (*Delta, error) {
	r := &ckptReader{b: payload}
	if v := r.u16(); r.err == nil && v != deltaVersion {
		return nil, fmt.Errorf("serve: delta version %d, want %d", v, deltaVersion)
	}
	d := &Delta{}
	d.Seq = r.u64()
	d.Epoch = r.u64()
	d.Gen = r.u64()
	d.K = int(int32(r.u32()))
	d.N = int(int32(r.u32()))
	d.Cross = int64(r.u64())
	d.Total = int64(r.u64())
	if d.K < 0 || d.N < 0 || d.N > graph.MaxVertices {
		return nil, fmt.Errorf("serve: delta declares k=%d n=%d", d.K, d.N)
	}
	d.Runs = readRuns(r)
	if r.err != nil {
		return nil, fmt.Errorf("serve: delta: %w", r.err)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("serve: delta has %d trailing bytes", len(r.b))
	}
	return d, nil
}

// labelDiffRuns computes the changed label runs taking old to new: maximal
// blocks where the labels differ over the common prefix, plus the whole
// appended tail when new is longer. Exact (no gap coalescing), so the run
// bytes scale with the churn, which is what makes relabel records and
// watch frames compact on low-churn histories.
func labelDiffRuns(old, new []int32) []LabelRun {
	var runs []LabelRun
	common := min(len(old), len(new))
	for i := 0; i < common; {
		if old[i] == new[i] {
			i++
			continue
		}
		j := i + 1
		for j < common && old[j] != new[j] {
			j++
		}
		runs = append(runs, LabelRun{Start: i, Labels: append([]int32(nil), new[i:j]...)})
		i = j
	}
	if len(new) > common {
		runs = append(runs, LabelRun{Start: common, Labels: append([]int32(nil), new[common:]...)})
	}
	return runs
}

// hubEpoch anchors FramedDelta publication instants: storing a
// time.Duration offset instead of a time.Time keeps the ring entry one
// word smaller and monotonic-clock based (time.Since reads the
// monotonic clock, so delivery latencies survive wall-clock jumps).
var hubEpoch = time.Now()

// FramedDelta is one retained publication with its canonical encodings
// memoized at publish time: the Delta record plus the complete
// CRC-framed /v1/watch frame (u8 kind | u32 len | u32 crc |
// EncodeDelta payload). Framing is deterministic, so every watch stream
// writes the same immutable Frame bytes — one encode and one CRC per
// publication regardless of subscriber count. Consumers must treat
// Frame (and everything Delta references) as read-only.
type FramedDelta struct {
	Delta *Delta
	Frame []byte
	pub   time.Duration // publication instant, offset from hubEpoch
}

// Payload returns the EncodeDelta bytes inside Frame (aliased, not
// copied).
func (f *FramedDelta) Payload() []byte { return f.Frame[frame.HeaderSize:] }

// Elapsed returns the time since the delta was published — the fan-out
// delivery latency when sampled right after writing Frame to a stream.
// Zero for entries constructed outside a hub (tests).
func (f *FramedDelta) Elapsed() time.Duration {
	if f.pub == 0 {
		return 0
	}
	return time.Since(hubEpoch) - f.pub
}

// deltaRing is one immutable ring snapshot: entries are contiguous and
// ascending by Seq; entries[0].Delta.Seq is the compaction floor.
// Readers load the current snapshot with one atomic pointer read and
// index into it arithmetically — no lock, no coordination with
// publishers. Successive snapshots share backing storage: publish
// appends past the previous snapshot's length and compacts by slicing
// off the front, so older snapshots never observe the write and the
// per-publication copy cost is amortized O(1) instead of O(ring).
type deltaRing struct {
	entries []FramedDelta
}

// deltaHub is the bounded publication ring. The coordinator is its one
// publisher; readers go through the atomic ring snapshot and the atomic
// next seq, so caught-up checks and catch-up reads never contend with a
// publish, and a publish never stalls behind readers.
type deltaHub struct {
	max  int
	ring atomic.Pointer[deltaRing]
	next atomic.Uint64 // seq the next publication gets

	// encodes is the store's DeltaEncodes: publish counts each
	// EncodeDelta call into it, so it tracks publications, not
	// subscribers.
	encodes *atomic.Int64

	// subs is woken by publish after the ring swap: the snapshot holding
	// a delta is visible before its token is sent, so "read the ring,
	// then park on C" never misses a publication.
	subs wakeSet
}

func newDeltaHub(max int, encodes *atomic.Int64) *deltaHub {
	h := &deltaHub{max: max, encodes: encodes}
	h.next.Store(1)
	return h
}

// publish assigns d its sequence, memoizes its encodings, swaps in the
// new ring snapshot, and wakes subscribers. The caller must not mutate
// d afterwards. Coordinator-only.
func (h *deltaHub) publish(d *Delta) {
	d.Seq = h.next.Load()
	payload := EncodeDelta(d)
	h.encodes.Add(1)
	framed := make([]byte, 0, frame.HeaderSize+len(payload))
	framed = AppendWatchFrame(framed, WatchFrame{Kind: WatchDelta, Delta: payload})
	entry := FramedDelta{Delta: d, Frame: framed, pub: time.Since(hubEpoch)}
	var keep []FramedDelta
	if old := h.ring.Load(); old != nil {
		keep = old.entries
		if len(keep) >= h.max {
			// Compaction: slice the oldest off the front. The backing
			// array is shared with prior snapshots, so dropped entries
			// stay pinned until append reallocates — bounded at roughly
			// one ring's worth, the price of O(1) amortized publish.
			keep = keep[len(keep)+1-h.max:]
		}
	}
	// Appending writes at an index beyond every previously published
	// snapshot's length, so concurrent readers of older snapshots never
	// observe it; the ring swap is the sole publication point.
	h.ring.Store(&deltaRing{entries: append(keep, entry)})
	h.next.Add(1)

	h.subs.wake()
}

// bounds returns the compaction floor (seq of the oldest retained delta;
// equals next when the ring is empty) and the next seq to be assigned.
// Lock-free: the ring is loaded before next so floor <= next always
// holds even when publications race the two reads.
func (h *deltaHub) bounds() (floor, next uint64) {
	r := h.ring.Load()
	next = h.next.Load()
	if r == nil || len(r.entries) == 0 {
		return next, next
	}
	return r.entries[0].Delta.Seq, next
}

// framedSince returns up to max retained entries with Seq > after, plus
// the floor. The entries alias the hub's immutable snapshot — zero
// copies, zero encodes; callers must not mutate them. A caller that
// finds fds[0].Delta.Seq != after+1 raced compaction and must resync.
func (h *deltaHub) framedSince(after uint64, max int) (fds []FramedDelta, floor uint64) {
	r := h.ring.Load()
	if r == nil || len(r.entries) == 0 {
		return nil, h.next.Load()
	}
	ents := r.entries
	floor = ents[0].Delta.Seq
	if after+1 > floor {
		// Seqs are dense and ascending, so the cursor's position is
		// index arithmetic, not a scan.
		skip := after + 1 - floor
		if skip >= uint64(len(ents)) {
			return nil, floor
		}
		ents = ents[skip:]
	}
	if max > 0 && len(ents) > max {
		ents = ents[:max]
	}
	return ents, floor
}

// DeltaBounds returns the change feed's compaction floor (the oldest
// delta sequence still in the ring) and the next sequence to be
// published. A consumer may resume from any from_seq with
// floor-1 <= from_seq <= next-1; anything older was compacted away.
func (s *Store) DeltaBounds() (floor, next uint64) { return s.deltas.bounds() }

// FramedDeltasSince returns up to max (0 = all) retained deltas with
// Seq > after, each with its memoized watch-frame bytes, plus the
// current compaction floor. The returned entries alias the hub's
// immutable ring snapshot — every caller shares the same Frame bytes and
// must not mutate them. When the first entry's Seq is not after+1 the gap
// was compacted: resync.
func (s *Store) FramedDeltasSince(after uint64, max int) ([]FramedDelta, uint64) {
	return s.deltas.framedSince(after, max)
}

// SubscribeDeltas registers a publication subscriber with a coalesced
// single-slot wakeup channel — the watch-stream hook. Callers must
// Cancel when done.
func (s *Store) SubscribeDeltas() *WakeSub { return s.deltas.subs.subscribe() }
