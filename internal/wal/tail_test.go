package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// tailEntry is record number r (1-based) of the property test's history:
// mostly mutations of varying size, a relabel every 17th.
func tailEntry(r int) GroupEntry {
	if r%17 == 0 {
		return GroupEntry{Relabel: []byte{2, 0, byte(r)}}
	}
	return GroupEntry{Mut: testMutation(r)}
}

// One appender in AppendGroup bursts over segments small enough to rotate
// every few groups, TruncateBelow chasing a retention pin the reader
// advances, one tail reader with random chunk sizes: every sequence number
// comes back exactly once and in order, no call returns a partial frame,
// the concatenated bytes are the journal's bytes, and opening below the
// truncation floor reports the gap.
func TestTailExactlyOnceUnderRotationAndTruncation(t *testing.T) {
	for _, seed := range []int64{1, 7, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { tailProperty(t, seed) })
	}
}

func tailProperty(t *testing.T, seed int64) {
	const groups = 300
	src := rand.New(rand.NewSource(seed))
	sizes := make([]int, groups)
	total := 0
	for i := range sizes {
		sizes[i] = 1 + src.Intn(5)
		total += sizes[i]
	}
	appendAll := func(j *Journal, acked *atomic.Uint64) error {
		r := 1
		for _, n := range sizes {
			ge := make([]GroupEntry, n)
			for i := range ge {
				ge[i] = tailEntry(r + i)
			}
			first, _, err := j.AppendGroup(ge)
			if err != nil {
				return err
			}
			r += n
			if acked != nil {
				acked.Store(first + uint64(n) - 1)
				runtime.Gosched()
			}
		}
		return nil
	}

	// Reference: the same history in one segment nobody truncates. Frames
	// do not depend on segmentation, so its bytes are what the tail of the
	// rotated, truncated journal must add up to.
	refDir := t.TempDir()
	ref, err := Open(refDir, 1, Options{SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendAll(ref, nil); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(refDir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	j, err := Open(dir, 1, Options{SegmentBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetRetention(1) // the reader needs everything until it says otherwise
	tail, err := OpenTail(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()

	var acked atomic.Uint64
	var removed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := appendAll(j, &acked); err != nil {
			t.Error(err)
		}
	}()
	go func() { // the checkpointer's truncation, as eager as it can be
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, err := j.TruncateBelow(acked.Load())
			if err != nil {
				t.Error(err)
				return
			}
			removed.Add(int64(n))
			runtime.Gosched()
		}
	}()

	var got []byte
	next := uint64(1) // the sequence number the reader must see next
	chunks := []int{1, 64, 300, 4096}
	readAll := func() error {
		for next <= uint64(total) && !t.Failed() {
			upTo := acked.Load()
			frames, last, err := tail.Next(upTo, chunks[src.Intn(len(chunks))])
			if err != nil {
				return fmt.Errorf("Next at seq %d: %w", next, err)
			}
			if len(frames) == 0 {
				runtime.Gosched()
				continue
			}
			// DecodeRecords refuses a partial or CRC-bad frame anywhere in
			// the buffer, so passing it is the "whole frames only" check.
			if err := DecodeRecords(frames, func(rec Record) error {
				if rec.Seq != next {
					return fmt.Errorf("record %d, want %d", rec.Seq, next)
				}
				next++
				return nil
			}); err != nil {
				return err
			}
			if last != next-1 || last > upTo {
				return fmt.Errorf("Next(upTo=%d) reported last=%d after delivering through %d", upTo, last, next-1)
			}
			got = append(got, frames...)
			j.SetRetention(next)
		}
		return nil
	}
	err = readAll()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("tailed %d bytes differ from the journal's %d", len(got), len(want))
	}
	if _, err := j.TruncateBelow(uint64(total)); err != nil {
		t.Fatal(err)
	}
	if removed.Load() == 0 {
		t.Fatal("truncation never reclaimed a segment behind the reader; the test did not bite")
	}
	if _, err := OpenTail(dir, 0); !errors.Is(err, ErrGap) {
		t.Fatalf("OpenTail below the truncation floor: err = %v, want ErrGap", err)
	}
}

// openTestTail appends n single-record groups to a fresh journal and
// opens a cursor after record afterSeq.
func openTestTail(t testing.TB, opt Options, n int, afterSeq uint64) (*Journal, *Tail) {
	t.Helper()
	dir := t.TempDir()
	j, err := Open(dir, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	for r := 1; r <= n; r++ {
		if _, _, err := j.AppendGroup([]GroupEntry{tailEntry(r)}); err != nil {
			t.Fatal(err)
		}
	}
	tail, err := OpenTail(dir, afterSeq)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tail.Close() })
	return j, tail
}

// seqsIn decodes a Next result into its sequence numbers.
func seqsIn(t *testing.T, frames []byte) []uint64 {
	t.Helper()
	var seqs []uint64
	if err := DecodeRecords(frames, func(r Record) error { seqs = append(seqs, r.Seq); return nil }); err != nil {
		t.Fatal(err)
	}
	return seqs
}

// The cursor's edges: opened mid-segment it skips to its position, it
// stops at the acknowledged sequence however much more is on disk, a
// frame larger than maxBytes still comes back whole, and caught up it
// returns nothing — also when the caller is ahead of the journal.
func TestTailPositionBoundAndOversizedFrame(t *testing.T) {
	j, tail := openTestTail(t, Options{SegmentBytes: 300}, 20, 7)
	frames, last, err := tail.Next(9, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := seqsIn(t, frames); len(got) != 2 || got[0] != 8 || last != 9 {
		t.Fatalf("Next(upTo=9) after 7 = seqs %v last %d, want [8 9]", got, last)
	}
	// maxBytes below one frame: exactly one whole frame per call.
	for want := uint64(10); want <= 20; want++ {
		frames, last, err := tail.Next(20, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := seqsIn(t, frames); len(got) != 1 || got[0] != want || last != want {
			t.Fatalf("Next(maxBytes=1) = seqs %v last %d, want [%d]", got, last, want)
		}
	}
	if frames, last, err := tail.Next(20, 1<<20); err != nil || len(frames) != 0 || last != 0 {
		t.Fatalf("caught-up Next = %d bytes, last %d, err %v; want nothing", len(frames), last, err)
	}
	if _, _, err := j.AppendGroup([]GroupEntry{tailEntry(21)}); err != nil {
		t.Fatal(err)
	}
	if frames, last, err := tail.Next(21, 1<<20); err != nil || last != 21 || len(seqsIn(t, frames)) != 1 {
		t.Fatalf("Next after a live append: last %d, err %v; want 21", last, err)
	}

	_, ahead := openTestTail(t, Options{}, 3, 10)
	if frames, _, err := ahead.Next(3, 1<<20); err != nil || len(frames) != 0 {
		t.Fatalf("cursor ahead of the journal: %d bytes, err %v; want nothing", len(frames), err)
	}
}

// Bytes at or below the acknowledged sequence were written in full, so a
// frame there that fails its CRC is corruption and an error — never a
// tail to wait out.
func TestTailCorruptionBelowAckedIsAnError(t *testing.T) {
	j, tail := openTestTail(t, Options{}, 5, 0)
	seg := filepath.Join(j.dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40 // record 5's last payload byte
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	frames, last, err := tail.Next(4, 1<<20)
	if err != nil || last != 4 || len(seqsIn(t, frames)) != 4 {
		t.Fatalf("Next(upTo=4) = last %d, err %v; the damage is past it", last, err)
	}
	if _, _, err := tail.Next(5, 1<<20); err == nil {
		t.Fatal("Next returned a CRC-bad frame's sequence as readable")
	}
}

// A caught-up stream allocates nothing per commit: the cursor reads each
// new group into the buffer it already has.
func TestTailSteadyStateAllocs(t *testing.T) {
	j, tail := openTestTail(t, Options{}, 50, 0)
	for { // catch up; this sizes the buffer
		frames, _, err := tail.Next(j.nextSeq-1, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) == 0 {
			break
		}
	}
	group := []GroupEntry{tailEntry(1), tailEntry(2)}
	var upTo uint64
	allocs := testing.AllocsPerRun(200, func() {
		first, _, err := j.AppendGroup(group)
		if err != nil {
			t.Fatal(err)
		}
		upTo = first + 1
		if frames, last, err := tail.Next(upTo, 64<<10); err != nil || last != upTo || len(frames) == 0 {
			t.Fatalf("Next(%d) = %d bytes, last %d, err %v", upTo, len(frames), last, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("append + Next allocates %.1f times per commit group, want 0", allocs)
	}
}
