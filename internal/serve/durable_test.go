package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/wal"
)

// durableCfg is the store configuration the recovery tests share: small
// checkpoint cadence so a mid-sequence checkpoint + journal tail both
// exist, NoFinalCheckpoint so Close simulates a crash (the journal tail
// must carry the recovery), and the same partitioner seed everywhere so
// quiesced histories are deterministic.
func durableCfg(checkpointEvery int) Config {
	return Config{
		Options:       storeOpts(2, 9),
		DegradeFactor: 1.05,
		Durability: DurabilityConfig{
			CheckpointEvery:   checkpointEvery,
			NoFinalCheckpoint: true,
			SegmentBytes:      1 << 10,
		},
	}
}

// scriptedMutation is growth at step 2 and steady edge additions
// otherwise, with each of a step's 20 edges added 8 times:
// the weights merge into 20 arcs, and the journal grows about 1.9 KB per
// batch, so it outweighs the checkpoint within a few batches and the
// checkpoint rule fires.
func scriptedMutation(step int) *graph.Mutation {
	mut := &graph.Mutation{}
	if step == 2 {
		mut.NewVertices = 5
		for i := 0; i < 5; i++ {
			mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{
				U: graph.VertexID(100 + i), V: graph.VertexID(i), Weight: 2})
		}
	}
	for r := 0; r < 8; r++ {
		for i := 0; i < 20; i++ {
			mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{
				U: graph.VertexID((i + 13*step) % 50), V: graph.VertexID(50 + (i*3+step)%50), Weight: 2})
		}
	}
	return mut
}

func runScript(t *testing.T, st *Store) {
	t.Helper()
	for step := 0; step < 6; step++ {
		if err := st.Submit(scriptedMutation(step)); err != nil {
			t.Fatal(err)
		}
		if err := st.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Resize(4); err != nil {
		t.Fatal(err)
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
}

func requireSameState(t *testing.T, name string, got, want *Store) {
	t.Helper()
	gs, ws := got.Snapshot(), want.Snapshot()
	if gs.K != ws.K || len(gs.Labels) != len(ws.Labels) {
		t.Fatalf("%s: k=%d with %d labels, want k=%d with %d labels", name, gs.K, len(gs.Labels), ws.K, len(ws.Labels))
	}
	for v := range ws.Labels {
		if gs.Labels[v] != ws.Labels[v] {
			t.Fatalf("%s: label of vertex %d = %d, want %d", name, v, gs.Labels[v], ws.Labels[v])
		}
	}
	if gs.CutWeight != ws.CutWeight || gs.TotalWeight != ws.TotalWeight {
		t.Fatalf("%s: counters (cut=%d,total=%d), want (cut=%d,total=%d)",
			name, gs.CutWeight, gs.TotalWeight, ws.CutWeight, ws.TotalWeight)
	}
	for l := range ws.CutByPartition {
		if gs.CutByPartition[l] != ws.CutByPartition[l] {
			t.Fatalf("%s: CutByPartition[%d] = %d, want %d", name, l, gs.CutByPartition[l], ws.CutByPartition[l])
		}
	}
	if gs.AppliedBatches != ws.AppliedBatches {
		t.Fatalf("%s: applied %d, want %d", name, gs.AppliedBatches, ws.AppliedBatches)
	}
}

// The acceptance property: checkpoint + journal replay reproduces labels,
// k and integer cut counters bit-identical to the uninterrupted store —
// and the post-recovery exact reconcile finds zero drift. The subtests
// keep the names they had when the store was split into shards=N vertex
// ranges; each now runs the one writer with its own partitioner seed.
func TestDurableRecoveryBitIdentical(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := durableCfg(3)
			cfg.Options.Seed = 8 + uint64(shards)
			// Uninterrupted in-memory reference.
			w, labels := twoClusters(50)
			ref, err := New(w, append([]int32(nil), labels...), Config{
				Options: cfg.Options, DegradeFactor: 1.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			runScript(t, ref)

			// Durable run over the same script, "crashed" at the end:
			// NoFinalCheckpoint leaves the tail only in the journal.
			dir := t.TempDir()
			w2, labels2 := twoClusters(50)
			st, err := NewDurable(dir, w2, append([]int32(nil), labels2...), cfg)
			if err != nil {
				t.Fatal(err)
			}
			runScript(t, st)
			requireSameState(t, "durable-vs-inmemory", st, ref)
			preCrash := st.Counters()
			if preCrash.Checkpoints.Load() < 2 {
				t.Fatalf("only %d periodic checkpoints; the test must exercise checkpoint+tail, not tail-only", preCrash.Checkpoints.Load())
			}
			// Per type: the 6 batches, the resize, and one relabel per merge.
			relabels := preCrash.Restabilizations.Load()
			if n := preCrash.BatchesApplied.Load() + preCrash.BatchesRejected.Load(); n != 6 {
				t.Fatalf("resolved %d batches, want 6", n)
			}
			if preCrash.ElasticResizes.Load() != 1 || relabels < 1 {
				t.Fatalf("%d resizes and %d relabels, want 1 and >= 1", preCrash.ElasticResizes.Load(), relabels)
			}
			if got := preCrash.JournalAppends.Load(); got != 7+relabels || st.JournalSeq() != uint64(got) {
				t.Fatalf("journaled %d records (seq %d), want %d (6 batches + 1 resize + %d relabels)",
					got, st.JournalSeq(), 7+relabels, relabels)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			// Recover and require bit-identical state.
			rec, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if err := rec.Quiesce(); err != nil && !strings.Contains(err.Error(), "absent edge") {
				t.Fatal(err)
			}
			requireSameState(t, "recovered", rec, ref)
			c := rec.Counters()
			if c.ReplayedRecords.Load() == 0 {
				t.Fatal("recovery replayed nothing; the journal tail was not exercised")
			}
			if c.CutReconciles.Load() == 0 {
				t.Fatal("post-recovery reconcile did not run")
			}
			if c.CutDrift.Load() != 0 {
				t.Fatalf("post-recovery reconcile repaired drift %d times; recovered counters must be exact", c.CutDrift.Load())
			}
			// And the recovered store keeps working: one more quiesced step
			// must match the reference continuing the same script.
			if err := rec.Submit(scriptedMutation(7)); err != nil {
				t.Fatal(err)
			}
			if err := rec.Quiesce(); err != nil {
				t.Fatal(err)
			}
			if err := ref.Submit(scriptedMutation(7)); err != nil {
				t.Fatal(err)
			}
			if err := ref.Quiesce(); err != nil {
				t.Fatal(err)
			}
			requireSameState(t, "post-recovery-continuation", rec, ref)
		})
	}
}

// churnHistory submits 120 batches without a quiesce between them: 20
// random edges each, 2 appended vertices in every 10th, and a Resize(k)
// at batch 60, so restabilizations — the resize's repair among them —
// merge while batches arrive. It does not quiesce at the end.
func churnHistory(t *testing.T, st *Store, seed uint64, k int) {
	t.Helper()
	src := rng.New(seed)
	n := len(st.Snapshot().Labels)
	for i := 0; i < 120; i++ {
		if i == 60 {
			if err := st.Resize(k); err != nil {
				t.Fatal(err)
			}
		}
		mut := &graph.Mutation{}
		if i%10 == 9 {
			mut.NewVertices = 2
			for v := n; v < n+2; v++ {
				mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{
					U: graph.VertexID(v), V: graph.VertexID(src.Intn(n)), Weight: 2})
			}
			n += 2
		}
		for j := 0; j < 20; j++ {
			u, v := graph.VertexID(src.Intn(n)), graph.VertexID(src.Intn(n))
			if u != v {
				mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{U: u, V: v, Weight: 1 + int32(src.Intn(3))})
			}
		}
		if err := st.Submit(mut); err != nil {
			t.Fatal(err)
		}
	}
}

// Recovery of a leader closed mid-churn — no quiesce, so the second
// resize's repair is typically still in flight (Close discards it), and
// no final checkpoint — lands exactly on the state the leader had
// journaled: every relabel it merged is adopted where the journal holds
// it, and a read-only recovery starts none of its own.
func TestDurableRecoveryMidChurn(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			w, labels := twoClusters(50)
			cfg := durableCfg(-1) // recovery replays the whole journal
			st, err := NewDurable(dir, w, labels, cfg)
			if err != nil {
				t.Fatal(err)
			}
			churnHistory(t, st, 5+uint64(shards), 3)
			for deadline := time.Now().Add(30 * time.Second); st.Counters().Restabilizations.Load() == 0; {
				if time.Now().After(deadline) {
					t.Fatal("the first resize's repair never merged")
				}
				time.Sleep(time.Millisecond)
			}
			churnHistory(t, st, 7+uint64(shards), 4)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := OpenReadOnly(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if err := rec.Quiesce(); err != nil {
				t.Fatal(err)
			}
			requireSameState(t, "recovered mid-churn", rec, st)
			if got, want := rec.JournalSeq(), st.JournalSeq(); got != want {
				t.Fatalf("recovered journal at seq %d, leader closed at %d", got, want)
			}
			c, merged := rec.Counters(), st.Counters().Restabilizations.Load()
			if c.Restabilizations.Load() != merged || c.CutDrift.Load() != 0 {
				t.Fatalf("recovery adopted %d relabels (drift %d); the leader merged %d",
					c.Restabilizations.Load(), c.CutDrift.Load(), merged)
			}
		})
	}
}

// The crash-mid-checkpoint property (ISSUE 5): a crash while a
// background checkpoint is in flight leaves, at worst, the previous
// checkpoint set plus a leftover temp file — wal.WriteCheckpoint installs
// atomically, so the in-flight checkpoint simply never appears. Recovery
// must ignore the temp file, fall back to the previous valid checkpoint,
// and replay the LONGER journal tail to a state bit-identical to the
// uninterrupted run. (The journal makes this possible because it is only
// truncated below the oldest RETAINED checkpoint, never below the
// newest.) The subtests keep their names from the sharded store; each
// runs its own partitioner seed.
func TestDurableRecoveryCrashDuringCheckpoint(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := durableCfg(3)
			cfg.Options.Seed = 8 + uint64(shards)
			w, labels := twoClusters(50)
			ref, err := New(w, append([]int32(nil), labels...), Config{
				Options: cfg.Options, DegradeFactor: 1.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			runScript(t, ref)

			dir := t.TempDir()
			w2, labels2 := twoClusters(50)
			st, err := NewDurable(dir, w2, append([]int32(nil), labels2...), cfg)
			if err != nil {
				t.Fatal(err)
			}
			runScript(t, st)
			journaled := st.JournalSeq()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			// Simulate the crash mid-background-checkpoint: the newest
			// checkpoint was never installed (remove it) and the writer died
			// mid-write (a leftover temp file recovery must ignore).
			cdir := filepath.Join(dir, "checkpoints")
			seqs, err := wal.Checkpoints(cdir)
			if err != nil {
				t.Fatal(err)
			}
			if len(seqs) < 2 {
				t.Fatalf("need >= 2 checkpoints to lose one, have %v", seqs)
			}
			newest := seqs[len(seqs)-1]
			if err := os.Remove(filepath.Join(cdir, fmt.Sprintf("ckpt-%016x.ckpt", newest))); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cdir, "ckpt-1234567890.tmp"), []byte("torn checkpoint write"), 0o644); err != nil {
				t.Fatal(err)
			}

			rec, err := Open(dir, cfg)
			if err != nil {
				t.Fatalf("recovery must fall back past the lost checkpoint: %v", err)
			}
			defer rec.Close()
			if err := rec.Quiesce(); err != nil && !strings.Contains(err.Error(), "absent edge") {
				t.Fatal(err)
			}
			requireSameState(t, "crash-during-checkpoint", rec, ref)
			c := rec.Counters()
			// The tail is every record past the surviving checkpoint —
			// strictly longer than the one the lost checkpoint would have left.
			if want := int64(journaled - seqs[len(seqs)-2]); c.ReplayedRecords.Load() != want {
				t.Fatalf("replayed %d records from the fallback checkpoint at seq %d, want %d",
					c.ReplayedRecords.Load(), seqs[len(seqs)-2], want)
			}
			if c.CutDrift.Load() != 0 {
				t.Fatalf("cut drift %d after fallback recovery", c.CutDrift.Load())
			}
			// The recovered store keeps working identically.
			for _, target := range []*Store{rec, ref} {
				if err := target.Submit(scriptedMutation(7)); err != nil {
					t.Fatal(err)
				}
				if err := target.Quiesce(); err != nil {
					t.Fatal(err)
				}
			}
			requireSameState(t, "post-fallback-continuation", rec, ref)
		})
	}
}

// A graceful Close writes a final checkpoint, so reopening replays
// nothing and still lands on the identical state.
func TestDurableGracefulReopen(t *testing.T) {
	dir := t.TempDir()
	w, labels := twoClusters(50)
	cfg := durableCfg(-1) // no periodic checkpoints: Close's final one carries everything
	cfg.Durability.NoFinalCheckpoint = false
	st, err := NewDurable(dir, w, append([]int32(nil), labels...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, st)
	want := st.Snapshot()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	c := rec.Counters()
	if c.ReplayedRecords.Load() != 0 {
		t.Fatalf("replayed %d records past a final checkpoint", c.ReplayedRecords.Load())
	}
	got := rec.Snapshot()
	if got.K != want.K || got.CutWeight != want.CutWeight || got.TotalWeight != want.TotalWeight {
		t.Fatalf("reopened state %+v, want %+v", got, want)
	}
	for v := range want.Labels {
		if got.Labels[v] != want.Labels[v] {
			t.Fatalf("label of %d = %d, want %d", v, got.Labels[v], want.Labels[v])
		}
	}
}

// A recovery reaches the recorded labels whatever seed it runs with: a
// resize's relabel is journaled, so replay applies it rather than
// recomputing it from the seed. Booted with seed 11, resized and crashed
// with the resize in the journal, the store recovers its labels and
// counters when reopened with the default seed.
func TestOpenAdoptsRecordedSeed(t *testing.T) {
	dir := t.TempDir()
	w, labels := twoClusters(50)
	cfg := durableCfg(-1) // no periodic checkpoint: replay carries the resize
	cfg.Options.Seed = 11
	st, err := NewDurable(dir, w, append([]int32(nil), labels...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, st)
	want := st.Snapshot()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	relabels := 0
	if _, err := wal.Replay(journalDir(dir), 0, func(r wal.Record) error {
		if r.Type == wal.RecordRelabel {
			d, err := DecodeDelta(r.Relabel)
			if err != nil {
				return err
			}
			if d.K == 4 {
				relabels++
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if relabels == 0 {
		t.Fatal("the journal holds no relabel to the resize's k=4")
	}

	cfg.Options.Seed = 0
	rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Counters().ReplayedRecords.Load() == 0 {
		t.Fatal("nothing replayed: the resize was not recovered from the journal")
	}
	got := rec.Snapshot()
	if got.K != want.K || got.CutWeight != want.CutWeight || got.TotalWeight != want.TotalWeight {
		t.Fatalf("recovered k=%d cut=%d total=%d, want k=%d cut=%d total=%d",
			got.K, got.CutWeight, got.TotalWeight, want.K, want.CutWeight, want.TotalWeight)
	}
	for v := range want.Labels {
		if got.Labels[v] != want.Labels[v] {
			t.Fatalf("label of %d = %d, want %d", v, got.Labels[v], want.Labels[v])
		}
	}
}

// What a checkpoint persists of the coordinator is one struct, coordState,
// and a graceful Close (final checkpoint) followed by Open restores it
// whole: after periodic checkpoints, a resize and its repair's relabel,
// the reopened store's coordState — baseline, appliedAtRestab, gen,
// wantRestab among it — equals the closed store's.
func TestCloseOpenRestoresCoordState(t *testing.T) {
	dir := t.TempDir()
	w, labels := twoClusters(50)
	cfg := durableCfg(64)
	cfg.Durability.NoFinalCheckpoint = false
	st, err := NewDurable(dir, w, append([]int32(nil), labels...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, st) // growth to 105 vertices, edge additions, Resize(4) and its repair
	for i := 0; i < 520; i++ {
		if err := st.Submit(addBatch(105, i, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
	c := st.Counters()
	if got := c.Checkpoints.Load(); got < 3 {
		t.Fatalf("%d checkpoints, want the initial one and at least 2 periodic", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := st.coordState
	if want.gen != 1 || want.epoch < 1 {
		t.Fatalf("history left gen=%d epoch=%d, want a resize and a relabel", want.gen, want.epoch)
	}

	rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Counters().ReplayedRecords.Load() != 0 {
		t.Fatalf("replayed %d records past a final checkpoint", rec.Counters().ReplayedRecords.Load())
	}
	if !reflect.DeepEqual(rec.coordState, want) {
		t.Fatalf("reopened coordinator state %+v, want %+v", rec.coordState, want)
	}
}

// A graceful Close with a forced repair in flight discards the run, not
// the repair: the final checkpoint folds the run into wantRestab, and the
// reopened leader runs it again.
func TestCloseWithRepairInFlight(t *testing.T) {
	dir := t.TempDir()
	w, labels := twoClusters(20_000) // the repair runs far longer than Close takes
	cfg := durableCfg(-1)
	cfg.Durability.NoFinalCheckpoint = false
	st, err := NewDurable(dir, w, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Resize(4); err != nil {
		t.Fatal(err)
	}
	// The control runs once the resize is applied; the coordinator starts
	// the repair in that turn, before it can see Close.
	if err := st.control(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if c := st.Counters(); c.Restabilizations.Load() != 0 || c.RestabDiscarded.Load() != 1 {
		t.Fatalf("Close saw %d restabilizations and %d discarded runs, want the repair in flight and discarded",
			c.Restabilizations.Load(), c.RestabDiscarded.Load())
	}

	// A read-only store keeps the flag as the final checkpoint holds it.
	ro, err := OpenReadOnly(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if !ro.coordState.wantRestab {
		t.Fatal("reopened store's wantRestab is false: the repair in flight at Close was lost")
	}

	rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counters().Restabilizations.Load(); got != 1 {
		t.Fatalf("reopened leader ran %d restabilizations, want the repair again", got)
	}
	var want bool
	if err := rec.control(func() error { want = rec.wantRestab; return nil }); err != nil {
		t.Fatal(err)
	}
	if want || rec.Summary().Epoch != 1 {
		t.Fatalf("after the repair: wantRestab %v at epoch %d, want false at 1", want, rec.Summary().Epoch)
	}
}

// A torn record — the classic crash shape — must be dropped by recovery,
// with everything after it, landing exactly on the state before the torn
// batch. The torn frame is the last mutation whose restabilization
// journaled a relabel after it, so it is not the journal's last frame.
func TestDurableTornTailRecovery(t *testing.T) {
	const steps = 6
	dir := t.TempDir()
	w, labels := twoClusters(50)
	cfg := durableCfg(-1)
	cfg.Durability.SegmentBytes = 0 // one segment: every step's frame is in it
	st, err := NewDurable(dir, w, append([]int32(nil), labels...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "journal", "wal-0000000000000001.log")
	var offset [steps]int64 // the segment's size, and so the step's offset, before each step
	var seqBefore [steps + 1]uint64
	for step := 0; step < steps; step++ {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		offset[step], seqBefore[step] = fi.Size(), st.JournalSeq()
		if err := st.Submit(scriptedMutation(step)); err != nil {
			t.Fatal(err)
		}
		if err := st.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	seqBefore[steps] = st.JournalSeq()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	torn := -1
	for step := 0; step < steps; step++ {
		if seqBefore[step+1] > seqBefore[step]+1 {
			torn = step
		}
	}
	if torn < 0 {
		t.Fatal("no step journaled a relabel after its mutation; the test must tear a frame before the last")
	}

	// The reference applies the steps before the torn one.
	w2, labels2 := twoClusters(50)
	ref, err := New(w2, append([]int32(nil), labels2...), Config{
		Options: storeOpts(2, 9), DegradeFactor: 1.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for step := 0; step < torn; step++ {
		if err := ref.Submit(scriptedMutation(step)); err != nil {
			t.Fatal(err)
		}
		if err := ref.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}

	before, beforeSeq := offset[torn], seqBefore[torn]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frameLen := 8 + int64(binary.LittleEndian.Uint32(data[before:]))
	if err := os.Truncate(seg, before+frameLen-2); err != nil {
		t.Fatal(err)
	}

	rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("torn tail must not fail recovery: %v", err)
	}
	defer rec.Close()
	if err := rec.Quiesce(); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, "torn-tail", rec, ref)
	if c := rec.Counters(); c.ReplayedRecords.Load() != int64(beforeSeq) || c.CutDrift.Load() != 0 {
		t.Fatalf("replayed %d records (drift %d), want %d (0)", c.ReplayedRecords.Load(), c.CutDrift.Load(), beforeSeq)
	}
}

// Damage before the tail is corruption: recovery must refuse rather than
// silently drop acknowledged mutations.
func TestDurableMidLogCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	w, labels := twoClusters(50)
	cfg := durableCfg(-1)
	cfg.Durability.SegmentBytes = 256 // force several segments
	st, err := NewDurable(dir, w, append([]int32(nil), labels...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "journal", "wal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("need several segments, have %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, cfg); err == nil {
		t.Fatal("mid-log corruption recovered silently")
	}
}

func TestOpenWithoutState(t *testing.T) {
	dir := t.TempDir()
	if HasState(dir) {
		t.Fatal("empty dir reports state")
	}
	if _, err := Open(dir, durableCfg(-1)); !errors.Is(err, wal.ErrNoCheckpoint) {
		t.Fatalf("Open of empty dir: %v", err)
	}
}

func TestNewDurableRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	w, labels := twoClusters(20)
	st, err := NewDurable(dir, w, append([]int32(nil), labels...), durableCfg(-1))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Durable() {
		t.Fatal("durable store reports in-memory")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !HasState(dir) {
		t.Fatal("dir with checkpoints reports no state")
	}
	w2, labels2 := twoClusters(20)
	if _, err := NewDurable(dir, w2, labels2, durableCfg(-1)); err == nil {
		t.Fatal("NewDurable clobbered an existing data dir")
	}
}

// Aggressive checkpointing must prune checkpoints to the retention limit
// and reclaim journal segments — and the surviving checkpoint + tail must
// still recover a state bit-identical to an uninterrupted run.
func TestDurableCheckpointTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	w, labels := twoClusters(50)
	cfg := durableCfg(2)
	cfg.Durability.SegmentBytes = 512
	st, err := NewDurable(dir, w, append([]int32(nil), labels...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, labels2 := twoClusters(50)
	ref, err := New(w2, append([]int32(nil), labels2...), Config{
		Options: storeOpts(2, 9), DegradeFactor: 1.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for step := 0; step < 20; step++ {
		for _, target := range []*Store{st, ref} {
			if err := target.Submit(scriptedMutation(step % 6)); err != nil {
				t.Fatal(err)
			}
			if err := target.Quiesce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := st.Counters()
	if c.Checkpoints.Load() < 5 {
		t.Fatalf("only %d checkpoints after 20 quiesced batches at cadence 2", c.Checkpoints.Load())
	}
	ckpts, err := wal.Checkpoints(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 2 {
		t.Fatalf("%d checkpoints retained, want 2", len(ckpts))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.Quiesce(); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, "truncated-journal", rec, ref)
}
