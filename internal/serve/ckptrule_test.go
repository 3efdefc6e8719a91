package serve

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/wal"
)

// TestCheckpointRuleBoundsJournal plays a long history, killed after its
// third periodic checkpoint (NoFinalCheckpoint), reopened, and played on,
// and holds what is on disk afterwards to the checkpoint rule:
//
//   - each periodic checkpoint was taken only when both conditions held:
//     at least CheckpointEvery batches applied since the newest checkpoint,
//     and the journal above it at least that checkpoint's payload bytes;
//   - once the history quiesces, no checkpoint is due;
//   - the journal above the newest checkpoint never exceeded that
//     checkpoint's payload by more than one cadence interval (the bytes of
//     the most CheckpointEvery+burst records can carry: the rule is read
//     once per coordinator turn, and a turn commits up to a burst) plus
//     what was appended while a checkpoint was in flight.
//
// The kill leaves a journal tail longer than a cadence interval, so a
// reopened store that did not count its replayed tail toward the next
// checkpoint would break the bound.
func TestCheckpointRuleBoundsJournal(t *testing.T) {
	const every, burst = 4, 3
	dir := t.TempDir()
	cfg := durableCfg(every)
	cfg.DegradeFactor = 1e9                  // no restabilization: every record is a batch
	cfg.Durability.KeepCheckpoints = 1 << 10 // keep every checkpoint, and so the whole journal

	// 20 edges a batch, three in four re-adding an earlier edge (the
	// weights merge, so the journal outgrows the checkpoint), and one
	// batch in eight appending a vertex.
	rng := rand.New(rand.NewSource(5))
	n := 100 // twoClusters(50)
	var added []graph.WeightedEdgeRecord
	batch := func() *graph.Mutation {
		m := &graph.Mutation{}
		if rng.Intn(8) == 0 {
			m.NewVertices = 1
			m.NewEdges = append(m.NewEdges, graph.WeightedEdgeRecord{U: graph.VertexID(n), V: graph.VertexID(rng.Intn(n)), Weight: 2})
			n++
		}
		for len(m.NewEdges) < 20 {
			if len(added) > 0 && rng.Intn(4) != 0 {
				m.NewEdges = append(m.NewEdges, added[rng.Intn(len(added))])
				continue
			}
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				e := graph.WeightedEdgeRecord{U: graph.VertexID(u), V: graph.VertexID(v), Weight: 2}
				added = append(added, e)
				m.NewEdges = append(m.NewEdges, e)
			}
		}
		return m
	}

	// installed maps a checkpoint's seq to the journal seq at the first
	// quiesce that found it on disk: a bound on where it was installed.
	installed := map[uint64]uint64{}
	observe := func(st *Store) []uint64 {
		t.Helper()
		seqs, err := wal.Checkpoints(ckptDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range seqs {
			if _, ok := installed[s]; !ok {
				installed[s] = st.JournalSeq()
			}
		}
		return seqs
	}
	play := func(st *Store) {
		t.Helper()
		for i := 0; i < burst; i++ {
			if err := st.Submit(batch()); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}

	w, labels := twoClusters(50)
	st, err := NewDurable(dir, w, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	observe(st)
	// Three periodic checkpoints, then a tail of at least 12 batches —
	// more than a cadence interval, less than a checkpoint's bytes.
	for i := 0; ; i++ {
		if i == 200 {
			t.Fatalf("no kill point after %d batches: checkpoints at %v", i*burst, observe(st))
		}
		play(st)
		seqs := observe(st)
		if len(seqs) >= 4 && st.JournalSeq()-seqs[len(seqs)-1] >= 12 {
			break
		}
	}
	killedAt := st.JournalSeq()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		play(st)
		observe(st)
	}
	end := st.JournalSeq()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// B[s] is the journal's size through record s.
	B := make([]int64, 1, end+1)
	if _, err := wal.Replay(journalDir(dir), 0, func(rec wal.Record) error {
		if rec.Type != wal.RecordMutation {
			t.Fatalf("record %d has type %d; the history journals batches only", rec.Seq, rec.Type)
		}
		B = append(B, B[len(B)-1]+int64(rec.Bytes))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if uint64(len(B)) != end+1 {
		t.Fatalf("replayed %d records, journaled %d", len(B)-1, end)
	}
	var cadence int64
	for s := 0; s+every+burst < len(B); s++ {
		cadence = max(cadence, B[s+every+burst]-B[s])
	}

	type ckpt struct {
		seq     uint64
		applied int64
		bytes   int64
	}
	var ckpts []ckpt
	seqs := observe(st)
	for _, s := range seqs {
		payload, err := wal.ReadCheckpoint(ckptDir(dir), s)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := decodeCheckpoint(payload)
		if err != nil {
			t.Fatal(err)
		}
		ckpts = append(ckpts, ckpt{s, dec.applied, int64(len(payload))})
	}
	if len(ckpts) < 6 {
		t.Fatalf("checkpoints at %v: want the initial one and at least 5 periodic", seqs)
	}
	before := ckpts[slices.IndexFunc(ckpts, func(c ckpt) bool { return c.seq > killedAt })-1]
	if tail := B[killedAt] - B[installed[before.seq]]; tail <= cadence {
		t.Fatalf("the kill left %d journal bytes since checkpoint %d was installed, no more than a cadence interval (%d)",
			tail, before.seq, cadence)
	}

	for i := 1; i < len(ckpts); i++ {
		prev, c := ckpts[i-1], ckpts[i]
		if got := c.applied - prev.applied; got < every {
			t.Errorf("checkpoint %d: %d batches applied since checkpoint %d, want >= %d", c.seq, got, prev.seq, every)
		}
		if got := B[c.seq] - B[prev.seq]; got < prev.bytes {
			t.Errorf("checkpoint %d: %d journal bytes above checkpoint %d, want >= its %d", c.seq, got, prev.seq, prev.bytes)
		}
		// Between prev's install and c's capture the journal grew by at
		// most prev's bytes and a cadence interval; what came after
		// either point was appended while a checkpoint was in flight.
		if got := B[c.seq] - B[installed[prev.seq]]; got > prev.bytes+cadence {
			t.Errorf("checkpoint %d: %d journal bytes above checkpoint %d (%d bytes) when it was captured, cadence interval %d",
				c.seq, got, prev.seq, prev.bytes, cadence)
		}
	}
	last := ckpts[len(ckpts)-1]
	if int64(end)-last.applied >= every && B[end]-B[last.seq] >= last.bytes {
		t.Errorf("quiesced with a checkpoint due: %d batches and %d journal bytes above checkpoint %d (%d bytes)",
			int64(end)-last.applied, B[end]-B[last.seq], last.seq, last.bytes)
	}
	if got := B[end] - B[installed[last.seq]]; got > last.bytes+cadence {
		t.Errorf("%d journal bytes above the last checkpoint %d (%d bytes) at the end, cadence interval %d",
			got, last.seq, last.bytes, cadence)
	}
}
