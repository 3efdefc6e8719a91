package serve

// Tests for the staged commit pipeline (ISSUE 5): coalesced apply of
// drained add-only runs, group-commit journaling of burst submissions,
// and the equivalence/recovery guarantees both must preserve.

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/wal"
)

// addBatch builds a deterministic add-only batch inside [0, n).
func addBatch(n, step, edges int) *graph.Mutation {
	m := &graph.Mutation{}
	for i := 0; i < edges; i++ {
		u := graph.VertexID((i*7 + step*31) % n)
		v := graph.VertexID((i*13 + step*5 + 1) % n)
		if u == v {
			v = (v + 1) % graph.VertexID(n)
		}
		m.NewEdges = append(m.NewEdges, graph.WeightedEdgeRecord{U: u, V: v, Weight: 2})
	}
	return m
}

// handleGroup must merge consecutive batches that append no vertex and
// remove no edge into single publications, flush the run before a growth
// batch, a removal batch and a rejected batch (a self-loop, an
// out-of-range endpoint, a removal of an absent edge), resolve empty
// batches inline — and land on a state bit-identical to the same batches
// applied one at a time. Driven directly against an unstarted coordinator
// (the test plays its role), so the grouping is deterministic rather than
// timing-dependent.
func TestHandleGroupCoalescesRuns(t *testing.T) {
	w, labels := twoClusters(50)
	cfg := Config{Options: storeOpts(2, 9), DegradeFactor: 1e9}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	st, err := newFresh(w, append([]int32(nil), labels...), cfg)
	if err != nil {
		t.Fatal(err)
	}

	growth := &graph.Mutation{NewVertices: 5}
	for i := 0; i < 5; i++ {
		growth.NewEdges = append(growth.NewEdges, graph.WeightedEdgeRecord{
			U: graph.VertexID(100 + i), V: graph.VertexID(i), Weight: 2})
	}
	// addBatch(105, 3, 20)'s first edge is {93,16}: the removal batch takes
	// it away, and the last rejected batch removes it again.
	removal := &graph.Mutation{RemovedEdges: []graph.Edge{{From: 16, To: 93}}}
	selfLoop := &graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{{U: 3, V: 3, Weight: 2}}}
	outOfRange := &graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{{U: 0, V: 1000, Weight: 2}}}
	absent := &graph.Mutation{RemovedEdges: []graph.Edge{{From: 93, To: 16}}}
	entries := []logEntry{
		{GroupEntry: wal.GroupEntry{Mut: addBatch(100, 0, 20)}},
		{GroupEntry: wal.GroupEntry{Mut: addBatch(100, 1, 20)}},
		{GroupEntry: wal.GroupEntry{Mut: &graph.Mutation{}}}, // empty: resolved inline, run unbroken
		{GroupEntry: wal.GroupEntry{Mut: addBatch(100, 2, 20)}},
		{GroupEntry: wal.GroupEntry{Mut: growth}}, // flushes the run of 3
		{GroupEntry: wal.GroupEntry{Mut: addBatch(105, 3, 20)}},
		{GroupEntry: wal.GroupEntry{Mut: addBatch(105, 4, 20)}},
		{GroupEntry: wal.GroupEntry{Mut: removal}}, // flushes the run of 2
		{GroupEntry: wal.GroupEntry{Mut: addBatch(105, 5, 20)}},
		{GroupEntry: wal.GroupEntry{Mut: selfLoop}}, // rejected: flushes the run of 1
		{GroupEntry: wal.GroupEntry{Mut: addBatch(105, 6, 20)}},
		{GroupEntry: wal.GroupEntry{Mut: addBatch(105, 7, 20)}},
		{GroupEntry: wal.GroupEntry{Mut: outOfRange}}, // rejected: flushes the run of 2
		{GroupEntry: wal.GroupEntry{Mut: addBatch(105, 8, 20)}},
		{GroupEntry: wal.GroupEntry{Mut: absent}}, // rejected: flushes the run of 1
		{GroupEntry: wal.GroupEntry{Mut: addBatch(105, 9, 20)}},
		{GroupEntry: wal.GroupEntry{Mut: addBatch(105, 10, 20)}}, // the run of 2 the group ends with
	}
	rejected := map[*graph.Mutation]bool{selfLoop: true, outOfRange: true, absent: true}
	st.handleGroup(entries)

	c := &st.ctr
	if c.ApplyCoalesces.Load() != 4 || c.CoalescedBatches.Load() != 9 {
		t.Fatalf("coalesces=%d batches=%d, want 4 coalesced applies of 9 batches", c.ApplyCoalesces.Load(), c.CoalescedBatches.Load())
	}
	if c.BatchesApplied.Load() != 14 || c.BatchesRejected.Load() != 3 || st.applied.Load() != 17 {
		t.Fatalf("applied %d, rejected %d (resolved %d), want 14, 3 (17)", c.BatchesApplied.Load(), c.BatchesRejected.Load(), st.applied.Load())
	}
	if c.EdgesAdded.Load() != 225 || c.EdgesRemoved.Load() != 1 {
		t.Fatalf("EdgesAdded=%d EdgesRemoved=%d, want 225 and 1", c.EdgesAdded.Load(), c.EdgesRemoved.Load())
	}
	// One publication for the baseline, then one per run, growth and
	// removal: runs of 3, 2, 1, 2, 1 and 2, the growth and the removal.
	if c.SnapshotSwaps.Load() != 9 || c.DeltasPublished.Load() != 9 {
		t.Fatalf("SnapshotSwaps=%d DeltasPublished=%d, want 9 and 9", c.SnapshotSwaps.Load(), c.DeltasPublished.Load())
	}
	// Each delta's shape: the baseline names every label; a run's delta is
	// counter-only (no K, N or runs); the growth's carries the appended
	// labels; the removal's K and N and no runs. The last one carries the
	// counters the snapshot holds.
	type shape struct{ k, n, runVertices int }
	want := []shape{{2, 100, 100}, {}, {2, 105, 5}, {}, {2, 105, 0}, {}, {}, {}, {}}
	fds, _ := st.deltas.framedSince(0, 0)
	if len(fds) != len(want) {
		t.Fatalf("%d deltas in the ring, want %d", len(fds), len(want))
	}
	for i, fd := range fds {
		d := fd.Delta
		if got := (shape{d.K, d.N, d.RunVertices()}); got != want[i] || d.Seq != uint64(i+1) {
			t.Fatalf("delta %d: seq %d k=%d n=%d with %d run vertices, want seq %d %+v", i, d.Seq, d.K, d.N, d.RunVertices(), i+1, want[i])
		}
	}
	snap := st.Snapshot()
	if last := fds[len(fds)-1].Delta; last.Cross != snap.CutWeight || last.Total != snap.TotalWeight {
		t.Fatalf("last delta counters %d/%d, snapshot %d/%d", last.Cross, last.Total, snap.CutWeight, snap.TotalWeight)
	}

	// Reference: the same batches, one per submit, fully quiesced.
	w2, labels2 := twoClusters(50)
	ref, err := New(w2, append([]int32(nil), labels2...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, e := range entries {
		if err := ref.Submit(e.Mut); err != nil {
			t.Fatal(err)
		}
		// Quiesce returns the most recent rejection; the first is expected
		// at the first rejected batch.
		if err := ref.Quiesce(); (err != nil) != (rejected[e.Mut] || ref.Counters().BatchesRejected.Load() > 0) {
			t.Fatalf("quiesce after %+v: %v", e.Mut, err)
		}
	}
	if got := ref.Counters().BatchesRejected.Load(); got != 3 {
		t.Fatalf("reference rejected %d batches, want 3", got)
	}
	requireSameState(t, "coalesced-vs-sequential", st, ref)
}

// An unquiesced burst into a fsync=always durable store must journal in
// groups (group commit), coalesce applies, and still recover
// bit-identically after a crash: add-only batches never relabel, so the
// composed state is independent of how the pipeline grouped them, and
// replaying the group-framed journal one record at a time lands on the
// same state the live store reached.
func TestDurableGroupCommitBurstRecovery(t *testing.T) {
	const batches = 48
	cfg := Config{
		Options:       storeOpts(2, 9),
		DegradeFactor: 1e9, // no restabs: burst state must be exactly additive
		Durability: DurabilityConfig{
			Fsync:             wal.SyncAlways,
			CheckpointEvery:   -1,
			NoFinalCheckpoint: true,
			SegmentBytes:      1 << 10,
		},
	}
	w, labels := twoClusters(50)
	ref, err := New(w, append([]int32(nil), labels...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for step := 0; step < batches; step++ {
		if err := ref.Submit(addBatch(100, step, 8)); err != nil {
			t.Fatal(err)
		}
		if err := ref.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	w2, labels2 := twoClusters(50)
	st, err := NewDurable(dir, w2, append([]int32(nil), labels2...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < batches; step++ { // unquiesced: let the log back up
		if err := st.Submit(addBatch(100, step, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	c := st.Counters()
	if c.JournalAppends.Load() != batches || c.GroupedEntries.Load() != batches {
		t.Fatalf("journaled %d records in %d grouped entries, want %d", c.JournalAppends.Load(), c.GroupedEntries.Load(), batches)
	}
	if c.GroupCommits.Load() < 1 || c.GroupCommits.Load() > batches {
		t.Fatalf("GroupCommits=%d outside [1,%d]", c.GroupCommits.Load(), batches)
	}
	requireSameState(t, "burst-vs-sequential", st, ref)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash shape: no final checkpoint — the group-framed journal alone
	// must carry recovery to the identical state.
	rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counters().ReplayedRecords.Load(); got != batches {
		t.Fatalf("replayed %d records, want %d", got, batches)
	}
	requireSameState(t, "burst-recovery", rec, ref)
}
