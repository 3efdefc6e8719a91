package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// buildSeedJournal writes a small valid journal into dir and returns the
// single segment's bytes.
func buildSeedJournal(tb testing.TB, dir string) []byte {
	j, err := Open(dir, 1, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if i == 3 {
			if _, _, err := j.AppendGroup([]GroupEntry{{Relabel: []byte{2, 0, 7}}}); err != nil {
				tb.Fatal(err)
			}
			continue
		}
		if _, _, err := j.AppendGroup([]GroupEntry{{Mut: testMutation(i)}}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		tb.Fatalf("seed journal: %d segments, err %v", len(segs), err)
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzJournalReplay feeds arbitrary bytes to the journal decoder as a
// single (and therefore last) segment. Whatever the damage — truncation,
// bit flips, hostile length prefixes — Replay must never panic and never
// over-allocate, and every record it does deliver must carry a contiguous
// sequence number; when the input is a prefix-damaged copy of a valid
// journal, the delivered records must be the undamaged prefix.
func FuzzJournalReplay(f *testing.F) {
	seedDir := f.TempDir()
	seed := buildSeedJournal(f, seedDir)
	f.Add(seed)
	f.Add(seed[:len(seed)-1])       // torn tail
	f.Add(seed[:frameHeader])       // bare frame header
	f.Add([]byte{})                 // empty segment
	f.Add([]byte("not a journal!")) // garbage
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	huge := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(huge, 0xffffffff) // hostile length prefix
	f.Add(huge)
	// A relabel record after a mutation, then the same journal torn
	// inside the relabel's opaque body.
	rdir := f.TempDir()
	rj, err := Open(rdir, 1, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := rj.AppendGroup([]GroupEntry{{Mut: testMutation(1)}, {Relabel: []byte{1, 0, 7, 0, 0, 0}}}); err != nil {
		f.Fatal(err)
	}
	if err := rj.Close(); err != nil {
		f.Fatal(err)
	}
	relabeled, err := os.ReadFile(filepath.Join(rdir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(relabeled)
	f.Add(relabeled[:len(relabeled)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := uint64(1)
		next, err := Replay(dir, 0, func(r Record) error {
			if r.Seq != want {
				t.Fatalf("record seq %d, want %d", r.Seq, want)
			}
			want++
			switch r.Type {
			case RecordMutation:
				if r.Mut == nil {
					t.Fatal("mutation record without mutation")
				}
			case RecordRelabel:
				if r.Relabel == nil {
					t.Fatal("relabel record without a body")
				}
			default:
				t.Fatalf("unknown record type %d delivered", r.Type)
			}
			return nil
		})
		if err == nil && next != want {
			t.Fatalf("next=%d after %d records", next, want-1)
		}
		// A successful replay truncated any torn tail; a second pass must
		// be error-free and deliver the identical record count.
		if err == nil {
			count := uint64(1)
			if _, err2 := Replay(dir, 0, func(Record) error { count++; return nil }); err2 != nil || count != want {
				t.Fatalf("second pass: %d records, err %v (first pass %d)", count-1, err2, want-1)
			}
		}
	})
}

// The checkpoint+replay property at the wal layer: any checkpoint seq
// must partition the record stream exactly — replaying from it yields
// precisely the records after it, bit-identical.
func FuzzReplayAfterSeq(f *testing.F) {
	seedDir := f.TempDir()
	seed := buildSeedJournal(f, seedDir)
	f.Add(seed, uint64(0))
	f.Add(seed, uint64(3))
	f.Add(seed, uint64(99))
	f.Fuzz(func(t *testing.T, data []byte, after uint64) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var all []Record
		if _, err := Replay(dir, 0, func(r Record) error { all = append(all, r); return nil }); err != nil {
			t.Skip("not a valid journal")
		}
		var tail []Record
		if _, err := Replay(dir, after, func(r Record) error { tail = append(tail, r); return nil }); err != nil {
			t.Fatalf("full replay passed but tail replay failed: %v", err)
		}
		wantLen := 0
		for _, r := range all {
			if r.Seq > after {
				wantLen++
			}
		}
		if len(tail) != wantLen {
			t.Fatalf("tail after %d has %d records, want %d", after, len(tail), wantLen)
		}
		for i, r := range tail {
			if r.Seq != all[len(all)-wantLen+i].Seq {
				t.Fatalf("tail record %d has seq %d", i, r.Seq)
			}
		}
	})
}

// FuzzTail hands the tail cursor arbitrary segment bytes and arbitrary
// read boundaries (start position, acknowledged sequence, chunk size).
// It must never panic or over-allocate, and whatever it does return is
// whole CRC-good frames with the contiguous sequence numbers the caller
// asked for: after the start position, at or below the acknowledged one.
func FuzzTail(f *testing.F) {
	seed := buildSeedJournal(f, f.TempDir())
	f.Add(seed, uint64(0), uint64(6), 64)
	f.Add(seed, uint64(2), uint64(4), 1)
	f.Add(seed[:len(seed)-1], uint64(0), uint64(6), 1<<20) // acknowledged past a torn tail
	f.Add(seed, uint64(9), uint64(3), 0)
	f.Add([]byte("not a journal!"), uint64(0), uint64(1), 8)
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped, uint64(0), uint64(6), 4096)
	huge := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(huge, MaxRecordBytes) // hostile length prefix
	f.Add(huge, uint64(0), uint64(6), 16)

	f.Fuzz(func(t *testing.T, data []byte, after, upTo uint64, maxBytes int) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		after, upTo, maxBytes = after%16, upTo%16, maxBytes%(1<<16)
		tail, err := OpenTail(dir, after)
		if err != nil {
			t.Fatalf("OpenTail over one segment starting at 1: %v", err)
		}
		defer tail.Close()
		want := after + 1
		for {
			frames, last, err := tail.Next(upTo, maxBytes)
			if err != nil || len(frames) == 0 {
				return
			}
			for off := 0; off < len(frames); {
				frameLen, payload, ok := readFrame(frames[off:])
				if !ok {
					t.Fatalf("Next returned a bad or partial frame at +%d of %d bytes", off, len(frames))
				}
				if seq := binary.LittleEndian.Uint64(payload); seq != want || seq > upTo {
					t.Fatalf("Next(upTo=%d) returned seq %d, want %d", upTo, seq, want)
				}
				want++
				off += frameLen
			}
			if last != want-1 {
				t.Fatalf("Next reported last=%d after returning through %d", last, want-1)
			}
		}
	})
}
