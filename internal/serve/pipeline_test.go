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

// handleGroup must merge consecutive add-only batches into single
// applies, flush the run at general-path entries (growth), resolve empty
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
	entries := []logEntry{
		{GroupEntry: wal.GroupEntry{Mut: addBatch(100, 0, 20)}},
		{GroupEntry: wal.GroupEntry{Mut: addBatch(100, 1, 20)}},
		{GroupEntry: wal.GroupEntry{Mut: &graph.Mutation{}}}, // empty: resolved inline, run unbroken
		{GroupEntry: wal.GroupEntry{Mut: addBatch(100, 2, 20)}},
		{GroupEntry: wal.GroupEntry{Mut: growth}}, // general path: flushes the run of 3
		{GroupEntry: wal.GroupEntry{Mut: addBatch(105, 3, 20)}},
	}
	st.handleGroup(entries)

	c := &st.ctr
	if c.ApplyCoalesces.Load() != 1 || c.CoalescedBatches.Load() != 3 {
		t.Fatalf("coalesces=%d batches=%d, want 1 coalesced apply of 3", c.ApplyCoalesces.Load(), c.CoalescedBatches.Load())
	}
	if c.BatchesApplied.Load() != 6 || st.applied.Load() != 6 {
		t.Fatalf("applied %d batches (counter %d), want 6", c.BatchesApplied.Load(), st.applied.Load())
	}
	if c.EdgesAdded.Load() != 85 {
		t.Fatalf("EdgesAdded=%d, want 85", c.EdgesAdded.Load())
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
		if err := ref.Quiesce(); err != nil {
			t.Fatal(err)
		}
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
