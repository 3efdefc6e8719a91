package wal

// Fault-injection tests for the storage fail-stop contract: a failed or
// short journal write, or a failed fsync, must (a) never acknowledge the
// affected records, (b) poison the journal so every later append fails
// fast, and (c) leave the on-disk segments recoverable — Replay yields
// exactly the records acknowledged before the fault (plus, for fsync
// faults only, written-but-unsynced records that survived in the page
// cache: at-least-once for the unacknowledged, never loss for the
// acknowledged).

import (
	"errors"
	"io"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

func faultMut(step int) *graph.Mutation {
	return &graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{
		{U: graph.VertexID(step), V: graph.VertexID(step + 1), Weight: 2}}}
}

// replayCount replays dir from the start and returns the records seen.
func replayCount(t *testing.T, dir string) []Record {
	t.Helper()
	var recs []Record
	if _, err := Replay(dir, 0, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

func TestWriteFaultPoisonsJournalAndLosesNothingAcked(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		if _, _, err := j.AppendGroup([]GroupEntry{{Mut: faultMut(step)}}); err != nil {
			t.Fatal(err)
		}
	}

	boom := errors.New("injected: write fault")
	restore := InjectFaults(func(*os.File, []byte) (int, error) { return 0, boom }, nil)
	if _, _, err := j.AppendGroup([]GroupEntry{{Mut: faultMut(3)}}); !errors.Is(err, boom) {
		t.Fatalf("faulted append err = %v, want injected fault", err)
	}
	restore()

	// The poison is sticky even though the seam is healthy again: the
	// segment tail is in an unknown state, so no later record may be
	// framed after it.
	if err := j.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want the injected fault", err)
	}
	if _, _, err := j.AppendGroup([]GroupEntry{{Mut: faultMut(4)}}); !errors.Is(err, boom) {
		t.Fatalf("append after restore err = %v, want sticky poison", err)
	}
	j.Close()

	// Recovery sees exactly the acknowledged records; the faulted one
	// wrote zero bytes and must be absent.
	recs := replayCount(t, dir)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want the 3 acknowledged", len(recs))
	}

	// A fresh journal over the same dir (the Close+Open recovery path)
	// appends cleanly past the fault.
	j2, err := Open(dir, recs[len(recs)-1].Seq+1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := j2.AppendGroup([]GroupEntry{{Mut: faultMut(5)}}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(replayCount(t, dir)); got != 4 {
		t.Fatalf("replayed %d records after reopen, want 4", got)
	}
}

func TestShortWritePoisonsJournalAndTornTailIsDropped(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.AppendGroup([]GroupEntry{{Mut: faultMut(0)}}); err != nil {
		t.Fatal(err)
	}

	// Short-count the next write but actually land the torn prefix on
	// disk, the way a full disk or a crashed controller would.
	restore := InjectFaults(func(f *os.File, b []byte) (int, error) {
		return f.Write(b[:len(b)-3])
	}, nil)
	if _, _, err := j.AppendGroup([]GroupEntry{{Mut: faultMut(1)}}); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short-counted append err = %v, want io.ErrShortWrite", err)
	}
	restore()
	if err := j.Err(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Err() = %v, want io.ErrShortWrite", err)
	}
	if _, _, err := j.AppendGroup([]GroupEntry{{Mut: faultMut(2)}}); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("append after short write err = %v, want sticky poison", err)
	}
	j.Close()

	// The torn frame fails its CRC/length check and is truncated away;
	// only the acknowledged record replays.
	recs := replayCount(t, dir)
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("replayed %+v, want exactly the 1 acknowledged record", recs)
	}
}

func TestFsyncFaultUnderSyncAlwaysNeverAcknowledges(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, 1, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2; step++ {
		if _, _, err := j.AppendGroup([]GroupEntry{{Mut: faultMut(step)}}); err != nil {
			t.Fatal(err)
		}
	}

	// Fail exactly one fsync: fail-stop means one storage fault is enough
	// to poison the journal for good, even though the device "recovers".
	boom := errors.New("injected: fsync fault")
	calls := 0
	restore := InjectFaults(nil, func(f *os.File) error {
		calls++
		if calls == 1 {
			return boom
		}
		return f.Sync()
	})
	if _, _, err := j.AppendGroup([]GroupEntry{{Mut: faultMut(2)}}); !errors.Is(err, boom) {
		t.Fatalf("append over failed fsync err = %v, want injected fault", err)
	}
	restore()
	if err := j.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want the injected fault", err)
	}
	if _, _, err := j.AppendGroup([]GroupEntry{{Mut: faultMut(3)}}); !errors.Is(err, boom) {
		t.Fatalf("append after fsync fault err = %v, want sticky poison", err)
	}
	j.Close()

	// The written-but-unsynced record may survive in the page cache (we
	// did not crash the OS), so replay sees 2 or 3 records — but the 2
	// acknowledged ones must both be there, in order.
	recs := replayCount(t, dir)
	if len(recs) < 2 || len(recs) > 3 {
		t.Fatalf("replayed %d records, want 2 acknowledged (+ at most 1 unsynced)", len(recs))
	}
	for i := 0; i < 2; i++ {
		if recs[i].Seq != uint64(i+1) || recs[i].Type != RecordMutation {
			t.Fatalf("record %d = %+v, want acknowledged mutation seq %d", i, recs[i], i+1)
		}
	}
}

func TestFsyncFaultFailsForever(t *testing.T) {
	dir := t.TempDir()
	var appends atomic.Int64
	j, err := Open(dir, 1, Options{Sync: SyncAlways, AppendsCounter: &appends})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected: device gone")
	restore := InjectFaults(nil, func(*os.File) error { return boom })
	defer restore()
	for step := 0; step < 4; step++ {
		if _, _, err := j.AppendGroup([]GroupEntry{{Mut: faultMut(step)}}); !errors.Is(err, boom) {
			t.Fatalf("append %d err = %v, want injected fault every time", step, err)
		}
	}
	if appends.Load() != 0 {
		t.Fatalf("%d appends counted after unacknowledged writes, want 0", appends.Load())
	}
	restore()
	j.Close()
}
