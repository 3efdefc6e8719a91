package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/graph"
)

func testMutation(i int) *graph.Mutation {
	m := &graph.Mutation{NewVertices: i % 3}
	for e := 0; e <= i%4; e++ {
		m.NewEdges = append(m.NewEdges, graph.WeightedEdgeRecord{
			U: graph.VertexID(i + e), V: graph.VertexID(2*i + e + 1), Weight: int32(1 + e)})
	}
	if i%5 == 0 {
		m.RemovedEdges = append(m.RemovedEdges, graph.Edge{From: graph.VertexID(i), To: graph.VertexID(i + 7)})
	}
	return m
}

func mutationsEqual(a, b *graph.Mutation) bool {
	if a.NewVertices != b.NewVertices || len(a.NewEdges) != len(b.NewEdges) || len(a.RemovedEdges) != len(b.RemovedEdges) {
		return false
	}
	for i := range a.NewEdges {
		if a.NewEdges[i] != b.NewEdges[i] {
			return false
		}
	}
	for i := range a.RemovedEdges {
		if a.RemovedEdges[i] != b.RemovedEdges[i] {
			return false
		}
	}
	return true
}

// Append N records across several segments, replay, and require exact
// round-tripping in order with contiguous sequence numbers.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, 1, Options{SegmentBytes: 256}) // force rotations
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	want := make([]*graph.Mutation, 0, n)
	for i := 0; i < n; i++ {
		if i%9 == 8 {
			if _, _, err := j.AppendGroup([]GroupEntry{{Relabel: []byte{2, 0, byte(i)}}}); err != nil {
				t.Fatal(err)
			}
			want = append(want, nil)
			continue
		}
		m := testMutation(i)
		seq, frameLen, err := j.AppendGroup([]GroupEntry{{Mut: m}})
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(len(want)+1) {
			t.Fatalf("seq %d, want %d", seq, len(want)+1)
		}
		if frameLen <= 0 {
			t.Fatalf("frame length %d", frameLen)
		}
		want = append(want, m)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments; rotation never fired", len(segs))
	}

	var got []Record
	next, err := Replay(dir, 0, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if next != n+1 {
		t.Fatalf("next seq %d, want %d", next, n+1)
	}
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if want[i] == nil {
			if r.Type != RecordRelabel || !bytes.Equal(r.Relabel, []byte{2, 0, byte(i)}) {
				t.Fatalf("record %d: %+v, want relabel body 0200%02x", i, r, i)
			}
		} else if r.Type != RecordMutation || !mutationsEqual(r.Mut, want[i]) {
			t.Fatalf("record %d round-trip mismatch: %+v vs %+v", i, r.Mut, want[i])
		}
	}

	// Replay after a mid-log checkpoint skips the covered prefix.
	var tail []Record
	if _, err := Replay(dir, 25, func(r Record) error { tail = append(tail, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(tail) != n-25 || tail[0].Seq != 26 {
		t.Fatalf("tail replay got %d records starting at %d", len(tail), tail[0].Seq)
	}
}

// A torn tail — the crash shape — must be truncated and tolerated; the
// same damage mid-log must fail as corruption.
func TestJournalTornTailAndCorruption(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		j, err := Open(dir, 1, Options{SegmentBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if _, _, err := j.AppendGroup([]GroupEntry{{Mut: testMutation(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("torn-tail", func(t *testing.T) {
		dir := build(t)
		segs, _ := listSegments(dir)
		last := segs[len(segs)-1].path
		fi, _ := os.Stat(last)
		if err := os.Truncate(last, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
		count := 0
		next, err := Replay(dir, 0, func(Record) error { count++; return nil })
		if err != nil {
			t.Fatalf("torn tail must be tolerated: %v", err)
		}
		if count != 29 || next != 30 {
			t.Fatalf("replayed %d records (next %d), want 29 (30)", count, next)
		}
		// The torn bytes are gone: a second replay sees a clean log.
		count = 0
		if _, err := Replay(dir, 0, func(Record) error { count++; return nil }); err != nil || count != 29 {
			t.Fatalf("post-truncation replay: %d records, err %v", count, err)
		}
	})

	t.Run("mid-log-corruption", func(t *testing.T) {
		dir := build(t)
		segs, _ := listSegments(dir)
		if len(segs) < 2 {
			t.Fatal("need at least two segments")
		}
		data, _ := os.ReadFile(segs[0].path)
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(dir, 0, func(Record) error { return nil }); err == nil {
			t.Fatal("bit flip in a sealed segment replayed cleanly")
		}
	})

	t.Run("seq-gap", func(t *testing.T) {
		dir := build(t)
		segs, _ := listSegments(dir)
		if err := os.Remove(segs[1].path); err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(dir, 0, func(Record) error { return nil }); err == nil || !strings.Contains(err.Error(), "seq") {
			t.Fatalf("missing middle segment replayed cleanly (err=%v)", err)
		}
	})
}

// Regression: when a durably-installed checkpoint outlives the journal
// tail (fsync=never/interval power loss), the next append sequence must
// resume ABOVE the checkpoint — reusing covered sequence numbers would
// make the following recovery skip acknowledged records — and the stale,
// fully-covered segments must be dropped so the continuity check does not
// trip across the gap.
func TestReplayJournalEndingBelowCheckpoint(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // records 1..4 survive; 5..10 died with the page cache
		if _, _, err := j.AppendGroup([]GroupEntry{{Mut: testMutation(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	const ckptSeq = 10
	count := 0
	next, err := Replay(dir, ckptSeq, func(Record) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("replayed %d checkpoint-covered records", count)
	}
	if next != ckptSeq+1 {
		t.Fatalf("next append seq %d, must resume above the checkpoint at %d", next, ckptSeq+1)
	}

	// Post-recovery appends carry fresh sequence numbers, and the NEXT
	// recovery must deliver them all.
	j2, err := Open(dir, next, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		seq, _, err := j2.AppendGroup([]GroupEntry{{Mut: testMutation(10 + i)}})
		if err != nil {
			t.Fatal(err)
		}
		if seq != ckptSeq+1+uint64(i) {
			t.Fatalf("post-recovery append got seq %d, want %d", seq, ckptSeq+1+uint64(i))
		}
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	if _, err := Replay(dir, ckptSeq, func(r Record) error { seqs = append(seqs, r.Seq); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || seqs[0] != 11 || seqs[2] != 13 {
		t.Fatalf("second recovery delivered %v, want [11 12 13]", seqs)
	}
}

// TruncateBelow must delete exactly the sealed segments fully covered by
// the checkpoint and leave the tail replayable.
func TestJournalTruncateBelow(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, 1, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, _, err := j.AppendGroup([]GroupEntry{{Mut: testMutation(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := listSegments(dir)
	removed, err := j.TruncateBelow(20)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatalf("nothing truncated across %d segments", len(before))
	}
	count := 0
	first := uint64(0)
	if _, err := Replay(dir, 20, func(r Record) error {
		if first == 0 {
			first = r.Seq
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if first != 21 || count != 20 {
		t.Fatalf("post-truncation tail starts at %d with %d records, want 21 with 20", first, count)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// Sync policies: every policy must produce a replayable log; SyncAlways
// must fsync at least once per append, and closed journals reject writes.
func TestJournalSyncPoliciesAndClose(t *testing.T) {
	for _, pol := range []Policy{SyncNever, SyncEvery, SyncAlways} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			var appends, nbytes, syncs atomic.Int64
			j, err := Open(dir, 1, Options{Sync: pol, AppendsCounter: &appends, BytesCounter: &nbytes, SyncsCounter: &syncs})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if _, _, err := j.AppendGroup([]GroupEntry{{Mut: testMutation(i)}}); err != nil {
					t.Fatal(err)
				}
			}
			if pol == SyncAlways && syncs.Load() < 10 {
				t.Fatalf("SyncAlways issued %d fsyncs for 10 appends", syncs.Load())
			}
			if appends.Load() != 10 || nbytes.Load() == 0 {
				t.Fatalf("counters: appends=%d bytes=%d", appends.Load(), nbytes.Load())
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := j.AppendGroup([]GroupEntry{{Mut: testMutation(0)}}); err == nil {
				t.Fatal("append after Close succeeded")
			}
			count := 0
			if _, err := Replay(dir, 0, func(Record) error { count++; return nil }); err != nil || count != 10 {
				t.Fatalf("replay after close: %d records, err %v", count, err)
			}
		})
	}
}

// Type byte 2 held a resize's new k alone before a resize journaled its
// relabel; it is an unknown type now. A CRC-valid record of it was written
// in full, so replay fails on it as corruption rather than truncating it.
func TestReplayRefusesType2(t *testing.T) {
	dir := t.TempDir()
	payload := binary.LittleEndian.AppendUint64(nil, 1)
	payload = append(payload, 2, 5, 0, 0, 0)
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, frame.Checksum(payload))
	rec = append(rec, payload...)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Replay(dir, 0, func(Record) error { t.Fatal("a type-2 record was delivered"); return nil })
	if err == nil || !strings.Contains(err.Error(), "unknown record type 2") {
		t.Fatalf("Replay = %v, want an unknown-type error", err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, segName(1))); err != nil || !bytes.Equal(got, rec) {
		t.Fatalf("Replay changed the segment: %x, %v", got, err)
	}
}

// AppendGroup must land N records with contiguous sequence numbers and,
// under SyncAlways, a single fsync for the whole group — the group-commit
// contract the serving coordinator's drained-log appends rely on.
func TestJournalAppendGroup(t *testing.T) {
	dir := t.TempDir()
	var appends, syncs atomic.Int64
	j, err := Open(dir, 1, Options{Sync: SyncAlways, AppendsCounter: &appends, SyncsCounter: &syncs})
	if err != nil {
		t.Fatal(err)
	}
	group := []GroupEntry{
		{Mut: testMutation(1)},
		{Mut: testMutation(2)},
		{Relabel: []byte{2, 0, 7}},
		{Mut: testMutation(3)},
	}
	first, n, err := j.AppendGroup(group)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || n <= 0 {
		t.Fatalf("group landed at seq %d (%d bytes), want 1", first, n)
	}
	if got := syncs.Load(); got != 1 {
		t.Fatalf("group of %d records issued %d fsyncs, want 1", len(group), got)
	}
	if got := appends.Load(); got != int64(len(group)) {
		t.Fatalf("appends counter %d, want %d", got, len(group))
	}
	if first, _, err := j.AppendGroup(nil); err != nil || first != 0 {
		t.Fatalf("empty group: seq %d, err %v", first, err)
	}
	if _, _, err := j.AppendGroup([]GroupEntry{{Mut: testMutation(9)}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	if _, err := Replay(dir, 0, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("replayed %d records, want 5", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	if got[2].Type != RecordRelabel || !bytes.Equal(got[2].Relabel, group[2].Relabel) {
		t.Fatalf("mid-group relabel round-trip: %+v", got[2])
	}
	if !mutationsEqual(got[3].Mut, group[3].Mut) || !mutationsEqual(got[4].Mut, testMutation(9)) {
		t.Fatal("group-framed mutations did not round-trip")
	}
}

// A group larger than SegmentBytes must still land atomically in one
// segment (rotation happens before the group, never inside it), and the
// log must stay replayable across the oversized segment.
func TestJournalAppendGroupOversized(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, 1, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.AppendGroup([]GroupEntry{{Mut: testMutation(0)}}); err != nil {
		t.Fatal(err)
	}
	big := make([]GroupEntry, 16)
	for i := range big {
		big[i] = GroupEntry{Mut: testMutation(i)}
	}
	first, _, err := j.AppendGroup(big)
	if err != nil {
		t.Fatal(err)
	}
	if first != 2 {
		t.Fatalf("group landed at %d, want 2", first)
	}
	if _, _, err := j.AppendGroup([]GroupEntry{{Mut: testMutation(20)}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	count := 0
	next, err := Replay(dir, 0, func(Record) error { count++; return nil })
	if err != nil || count != 18 || next != 19 {
		t.Fatalf("replayed %d records (next %d, err %v), want 18 (19)", count, next, err)
	}
}

// Regression (ISSUE 5 satellite): Close under SyncEvery must stop the
// background syncer and flush a final fsync even when the interval never
// elapsed — otherwise the tail written since the last tick would ride on
// the page cache alone after a clean shutdown.
func TestJournalSyncEveryCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	var syncs atomic.Int64
	j, err := Open(dir, 1, Options{Sync: SyncEvery, SyncInterval: time.Hour, SyncsCounter: &syncs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := j.AppendGroup([]GroupEntry{{Mut: testMutation(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := syncs.Load(); got != 0 {
		t.Fatalf("%d fsyncs before the first interval tick", got)
	}
	done := j.done
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := syncs.Load(); got < 1 {
		t.Fatal("Close did not flush a final sync")
	}
	select {
	case <-done:
	default:
		t.Fatal("Close returned with the background syncer still running")
	}
	if _, _, err := j.AppendGroup([]GroupEntry{{Mut: testMutation(9)}}); err == nil {
		t.Fatal("append after Close succeeded")
	}
	count := 0
	if _, err := Replay(dir, 0, func(Record) error { count++; return nil }); err != nil || count != 3 {
		t.Fatalf("replay after close: %d records, err %v", count, err)
	}
}

// The SyncEvery syncer fsyncs without holding the append lock. While its
// fsync is held open, appends that fit the active segment return; an
// append that must rotate waits until the fsync ends, so no segment is
// closed under it; and Close stops the syncer.
func TestJournalIntervalSyncLeavesAppendsFree(t *testing.T) {
	entered := make(chan struct{})
	gate := make(chan struct{})
	var held atomic.Bool
	var gatedErr error
	restore := InjectFaults(nil, func(f *os.File) error {
		if !held.CompareAndSwap(false, true) {
			return f.Sync()
		}
		close(entered)
		<-gate
		gatedErr = f.Sync()
		return gatedErr
	})
	defer restore()
	var openGate sync.Once
	release := func() { openGate.Do(func() { close(gate) }) }
	defer release()

	dir := t.TempDir()
	j, err := Open(dir, 1, Options{Sync: SyncEvery, SyncInterval: time.Millisecond, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	appendAsync := func(e GroupEntry) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, _, err := j.AppendGroup([]GroupEntry{e})
			done <- err
		}()
		return done
	}
	if err := <-appendAsync(GroupEntry{Mut: testMutation(0)}); err != nil {
		t.Fatal(err)
	}
	<-entered // the syncer is inside its fsync of record 1

	for i := 1; i <= 3; i++ {
		select {
		case err := <-appendAsync(GroupEntry{Mut: testMutation(i)}):
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("append %d, which fits the segment, waited on the interval fsync", i)
		}
	}
	rotating := appendAsync(GroupEntry{Relabel: make([]byte, 64<<10)})
	select {
	case err := <-rotating:
		t.Fatalf("an append that rotates returned (err %v) while the interval fsync was held", err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := <-rotating; err != nil {
		t.Fatal(err)
	}
	if gatedErr != nil || j.Err() != nil {
		t.Fatalf("interval fsync err %v, journal err %v: the segment was closed under the fsync", gatedErr, j.Err())
	}

	done := j.done
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	default:
		t.Fatal("Close returned with the background syncer still running")
	}
	if got := len(replayCount(t, dir)); got != 5 {
		t.Fatalf("replayed %d records, want 5", got)
	}
}

// Concurrent appenders under SyncAlways must all be acknowledged durable
// with every record replaying in contiguous sequence order. A journal has
// one appender in the serving layer, but concurrent AppendGroup calls are
// safe: they run one after another, each with its own fsync, and small
// segments make rotations fall between them. Run with -race via make
// test-race.
func TestJournalConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	var appends, syncs atomic.Int64
	j, err := Open(dir, 1, Options{Sync: SyncAlways, SegmentBytes: 512, AppendsCounter: &appends, SyncsCounter: &syncs})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, _, err := j.AppendGroup([]GroupEntry{{Mut: testMutation(w*perWriter + i)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Each append issues one policy fsync and each sealed segment one more.
	if total, want := syncs.Load(), appends.Load()+int64(len(segs)-1); total != want {
		t.Fatalf("%d fsyncs for %d appends across %d segments, want %d", total, appends.Load(), len(segs), want)
	}
	if len(segs) < 2 {
		t.Fatalf("only %d segments; no rotation fell between the appends", len(segs))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if _, err := Replay(dir, 0, func(r Record) error {
		count++
		if r.Seq != uint64(count) {
			return fmt.Errorf("seq %d at position %d", r.Seq, count)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", count, writers*perWriter)
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{"never": SyncNever, "interval": SyncEvery, "ALWAYS": SyncAlways} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// Checkpoints: atomic install, CRC verification, latest-valid selection,
// and retention-driven pruning.
func TestCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LatestCheckpoint(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: %v", err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		payload := []byte(strings.Repeat("x", int(seq)*10))
		if err := WriteCheckpoint(dir, seq*5, payload); err != nil {
			t.Fatal(err)
		}
	}
	seq, payload, err := LatestCheckpoint(dir)
	if err != nil || seq != 20 || len(payload) != 40 {
		t.Fatalf("latest = %d (%d bytes), err %v", seq, len(payload), err)
	}

	// Corrupt the newest: selection must fall back to the previous one.
	path := filepath.Join(dir, ckptName(20))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	seq, payload, err = LatestCheckpoint(dir)
	if err != nil || seq != 15 || len(payload) != 30 {
		t.Fatalf("fallback = %d (%d bytes), err %v", seq, len(payload), err)
	}

	oldest, err := PruneCheckpoints(dir, 2)
	if err != nil || oldest != 15 {
		t.Fatalf("prune kept oldest %d, err %v", oldest, err)
	}
	seqs, _ := Checkpoints(dir)
	if len(seqs) != 2 || seqs[0] != 15 || seqs[1] != 20 {
		t.Fatalf("after prune: %v", seqs)
	}
}

// A journal that re-adds an edge and then removes it replays, batch by
// batch through graph.Mutation, to one merged arc and then to no edge.
func TestReplayMergesReAddedEdge(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*graph.Mutation{
		{NewEdges: []graph.WeightedEdgeRecord{{U: 0, V: 1, Weight: 2}}},
		{NewEdges: []graph.WeightedEdgeRecord{{U: 1, V: 0, Weight: 2}, {U: 1, V: 2, Weight: 1}}},
		{RemovedEdges: []graph.Edge{{From: 0, To: 1}}},
	} {
		if _, _, err := j.AppendGroup([]GroupEntry{{Mut: m}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	w := graph.NewWeighted(3)
	if _, err := Replay(dir, 0, func(r Record) error {
		if _, err := r.Mut.Apply(w); err != nil {
			return err
		}
		if r.Seq == 2 && (w.NumEdges() != 2 || len(w.Neighbors(0)) != 1 || w.Neighbors(0)[0] != (graph.WeightedArc{To: 1, Weight: 4})) {
			t.Fatalf("after the re-add: %d edges, row 0 %v; want 2 edges, one arc (1,4)", w.NumEdges(), w.Neighbors(0))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if w.NumEdges() != 1 || w.TotalWeight() != 1 || len(w.Neighbors(0)) != 0 {
		t.Fatalf("after the removal: %d edges of weight %d, row 0 %v; want {1,2} alone", w.NumEdges(), w.TotalWeight(), w.Neighbors(0))
	}
}
