package replica

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/wal"
)

// journalFrames builds a real WAL journal and returns its raw frame bytes
// — a realistic records payload for fuzz seeding.
func journalFrames(tb testing.TB) []byte {
	tb.Helper()
	dir, err := os.MkdirTemp("", "replica-fuzz")
	if err != nil {
		tb.Fatal(err)
	}
	defer os.RemoveAll(dir)
	j, err := wal.Open(dir, 1, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := j.AppendGroup([]wal.GroupEntry{{Mut: &graph.Mutation{NewVertices: 2,
		NewEdges: []graph.WeightedEdgeRecord{{U: 0, V: 1, Weight: 3}}}}}); err != nil {
		tb.Fatal(err)
	}
	if _, _, err := j.AppendGroup([]wal.GroupEntry{{Relabel: []byte{2, 0, 5}}}); err != nil {
		tb.Fatal(err)
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	frames, _, _ := readJournal(tb, dir, 2)
	return frames
}

// readJournal tails the journal in dir from seq 1 through upTo, as a
// stream opened at after_seq=0 would: the frames, the last sequence read,
// and whether seq 1 was already reclaimed (the 410 case).
func readJournal(tb testing.TB, dir string, upTo uint64) (frames []byte, last uint64, gap bool) {
	tb.Helper()
	tail, err := wal.OpenTail(dir, 0)
	if errors.Is(err, wal.ErrGap) {
		return nil, 0, true
	}
	if err != nil {
		tb.Fatal(err)
	}
	defer tail.Close()
	for {
		chunk, l, err := tail.Next(upTo, 1<<20)
		if err != nil {
			tb.Fatal(err)
		}
		if len(chunk) == 0 {
			return frames, last, false
		}
		frames, last = append(frames, chunk...), l
	}
}

// FuzzStreamFrame hammers the stream-frame decoder with arbitrary bytes:
// it must never panic, must reject frames whose CRC does not cover the
// payload, and on success must round-trip through AppendFrame and hand
// wal.DecodeRecords a payload it can iterate without panicking.
func FuzzStreamFrame(f *testing.F) {
	records := journalFrames(f)
	f.Add(AppendFrame(nil, Frame{Kind: FrameHandshake, Epoch: 1, LeaderSeq: 2}))
	f.Add(AppendFrame(nil, Frame{Kind: FrameHeartbeat, Epoch: 7, LeaderSeq: 99}))
	f.Add(AppendFrame(nil, Frame{Kind: FrameRecords, Epoch: 3, LeaderSeq: 2, Records: records}))
	f.Add([]byte{FrameRecords, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(b))
		}
		// Round-trip: re-encoding the decoded frame must reproduce the
		// consumed bytes exactly.
		if re := AppendFrame(nil, fr); !bytes.Equal(re, b[:n]) {
			t.Fatalf("round-trip mismatch:\n got %x\nwant %x", re, b[:n])
		}
		if fr.Kind == FrameRecords {
			// The record iterator must not panic on whatever payload
			// survived the frame CRC; per-record CRCs still apply.
			_ = wal.DecodeRecords(fr.Records, func(wal.Record) error { return nil })
		}
		// Chained decode of the remainder must also not panic.
		if _, _, err := DecodeFrame(b[n:]); err != nil {
			return
		}
	})
}
