package wal

import (
	"os"
	"strings"
	"testing"

	"repro/internal/graph"
)

func segmentCount(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), segSuffix) {
			n++
		}
	}
	return n
}

// retainedRange reports the [first, last] sequence range a tail reader
// can still get from the journal's directory.
func retainedRange(t *testing.T, j *Journal) (first, last uint64) {
	t.Helper()
	segs, err := listSegments(j.dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listing %s: %d segments, err %v", j.dir, len(segs), err)
	}
	first = segs[0].first
	tail, err := OpenTail(j.dir, first-1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	for {
		frames, l, err := tail.Next(j.NextSeq()-1, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) == 0 {
			return first, last
		}
		last = l
	}
}

// The truncate-under-replication race: a checkpoint-driven TruncateBelow
// must not reclaim segments a connected follower still needs. SetRetention
// pins a floor; truncation clamps to it, and clearing the pin reclaims.
func TestTruncateBelowRespectsRetentionFloor(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, 1, Options{Sync: SyncNever, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	mut := &graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{{U: 0, V: 1, Weight: 2}}}
	for i := 0; i < 40; i++ {
		if _, _, err := j.AppendGroup([]GroupEntry{{Mut: mut}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	before := segmentCount(t, dir)
	if before < 3 {
		t.Fatalf("only %d segments; need rotation for the test to bite", before)
	}

	// A follower still needs everything from seq 5 on: a checkpoint at 30
	// may only truncate below 5.
	j.SetRetention(5)
	if _, err := j.TruncateBelow(30); err != nil {
		t.Fatal(err)
	}
	first, last := retainedRange(t, j)
	if first == 0 || first > 5 {
		t.Fatalf("journal starts at seq %d after pinned truncation, want <= 5 (retention floor ignored)", first)
	}
	if last != 40 {
		t.Fatalf("journal ends at seq %d, want 40", last)
	}

	// Follower disconnects: the pin clears and the same truncation
	// reclaims segments below 30.
	j.SetRetention(0)
	if _, err := j.TruncateBelow(30); err != nil {
		t.Fatal(err)
	}
	first, last = retainedRange(t, j)
	if first <= 5 {
		t.Fatalf("journal still starts at seq %d after clearing retention, want > 5 (nothing reclaimed)", first)
	}
	if first > 31 {
		t.Fatalf("journal starts at seq %d, want <= 31 (truncation overshot)", first)
	}
	if last != 40 {
		t.Fatalf("journal ends at seq %d, want 40", last)
	}
	if after := segmentCount(t, dir); after >= before {
		t.Fatalf("segments %d -> %d, want fewer after truncation", before, after)
	}
}

// A floor above the truncation point must not widen it: TruncateBelow(seq)
// with retention > seq truncates below seq as usual.
func TestTruncateBelowFloorAboveSeq(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, 1, Options{Sync: SyncNever, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mut := &graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{{U: 0, V: 1, Weight: 2}}}
	for i := 0; i < 20; i++ {
		if _, _, err := j.AppendGroup([]GroupEntry{{Mut: mut}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	j.SetRetention(100) // follower already past the tail
	if _, err := j.TruncateBelow(10); err != nil {
		t.Fatal(err)
	}
	first, last := retainedRange(t, j)
	if first == 0 || first > 10 {
		t.Fatalf("journal starts at seq %d, want <= 10 (truncation overshot seq)", first)
	}
	if last != 20 {
		t.Fatalf("journal ends at seq %d, want 20", last)
	}
}
