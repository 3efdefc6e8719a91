package serve

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"path/filepath"

	"repro/internal/graph"
	"repro/internal/wal"
)

// randomHistory builds a reproducible random mutation script: steady
// edge churn, occasional growth, occasional removal of an edge the
// script itself added (uniform weight 2, so removals are unambiguous).
func randomHistory(rng *rand.Rand, steps int) []*graph.Mutation {
	n := 100 // twoClusters(50)
	var added []graph.Edge
	var muts []*graph.Mutation
	for s := 0; s < steps; s++ {
		mut := &graph.Mutation{}
		if rng.Intn(3) == 0 {
			g := 1 + rng.Intn(4)
			mut.NewVertices = g
			for i := 0; i < g; i++ {
				mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{
					U: graph.VertexID(n + i), V: graph.VertexID(rng.Intn(n)), Weight: 2})
			}
			n += g
		}
		for i := 10 + rng.Intn(20); i > 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{
				U: graph.VertexID(u), V: graph.VertexID(v), Weight: 2})
			added = append(added, graph.Edge{From: graph.VertexID(u), To: graph.VertexID(v)})
		}
		if len(added) > 8 && rng.Intn(3) == 0 {
			i := rng.Intn(len(added))
			mut.RemovedEdges = append(mut.RemovedEdges, added[i])
			added[i] = added[len(added)-1]
			added = added[:len(added)-1]
		}
		muts = append(muts, mut)
	}
	return muts
}

func playHistory(t *testing.T, st *Store, muts []*graph.Mutation, resizeAt, resizeK int) {
	t.Helper()
	for i, mut := range muts {
		if err := st.Submit(mut); err != nil {
			t.Fatal(err)
		}
		if err := st.Quiesce(); err != nil && !strings.Contains(err.Error(), "absent edge") {
			t.Fatal(err)
		}
		if i == resizeAt {
			if err := st.Resize(resizeK); err != nil {
				t.Fatal(err)
			}
			if err := st.Quiesce(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The incremental-checkpoint acceptance property: over randomized
// histories, recovery from a base checkpoint plus its delta chain is
// bit-identical to recovery with incremental checkpoints disabled
// (full re-encodes only) — labels, k, shard bounds, and the integer cut
// counters — at one and several shards.
func TestIncrementalRecoveryBitIdenticalToFull(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				muts := randomHistory(rand.New(rand.NewSource(seed*1000+int64(shards))), 12)

				runDurable := func(maxChain int) (string, *Store) {
					dir := t.TempDir()
					cfg := durableCfg(shards, 3)
					cfg.Durability.MaxDeltaChain = maxChain
					w, labels := twoClusters(50)
					st, err := NewDurable(dir, w, append([]int32(nil), labels...), cfg)
					if err != nil {
						t.Fatal(err)
					}
					playHistory(t, st, muts, 7, 4)
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					return dir, st
				}

				incrDir, incrSt := runDurable(0) // 0 = default chain length
				fullDir, fullSt := runDurable(-1)
				requireSameState(t, "incr-vs-full-precrash", incrSt, fullSt)

				// The incremental run must actually have written a chain —
				// otherwise this test proves nothing.
				if dseqs, err := wal.DeltaCheckpoints(filepath.Join(incrDir, "checkpoints")); err != nil || len(dseqs) == 0 {
					t.Fatalf("incremental run wrote no delta checkpoints (%v, %v)", dseqs, err)
				}
				if got := incrSt.Counters().IncrCheckpointBytes.Load(); got == 0 {
					t.Fatal("IncrCheckpointBytes = 0 on the incremental run")
				}
				if dseqs, err := wal.DeltaCheckpoints(filepath.Join(fullDir, "checkpoints")); err != nil || len(dseqs) != 0 {
					t.Fatalf("full-only run wrote delta checkpoints: %v, %v", dseqs, err)
				}

				recover := func(dir string, maxChain int) *Store {
					cfg := durableCfg(shards, 3)
					cfg.Durability.MaxDeltaChain = maxChain
					rec, err := Open(dir, cfg)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { rec.Close() })
					if err := rec.Quiesce(); err != nil && !strings.Contains(err.Error(), "absent edge") {
						t.Fatal(err)
					}
					return rec
				}
				recIncr := recover(incrDir, 0)
				recFull := recover(fullDir, -1)
				requireSameState(t, "incr-recovery-vs-full-recovery", recIncr, recFull)
				requireSameState(t, "incr-recovery-vs-precrash", recIncr, incrSt)
				if c := recIncr.Counters(); c.CutDrift.Load() != 0 {
					t.Fatalf("incremental recovery reconciled drift %d times; must be exact", c.CutDrift.Load())
				}

				// Both recoveries keep working identically.
				tail := randomHistory(rand.New(rand.NewSource(seed*7777)), 2)
				playHistory(t, recIncr, tail, -1, 0)
				playHistory(t, recFull, tail, -1, 0)
				requireSameState(t, "post-recovery-continuation", recIncr, recFull)
			})
		}
	}
}

// A chain longer than MaxDeltaChain must force a full rebase that prunes
// the superseded links, and the rebased state must still recover.
func TestIncrementalChainRebase(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(2, 1) // checkpoint on every record
	cfg.Durability.MaxDeltaChain = 2
	w, labels := twoClusters(50)
	st, err := NewDurable(dir, w, append([]int32(nil), labels...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	muts := randomHistory(rand.New(rand.NewSource(99)), 10)
	playHistory(t, st, muts, -1, 0)
	rebases := st.Counters().CheckpointRebases.Load()
	if rebases == 0 {
		t.Fatal("10 checkpointed batches with MaxDeltaChain=2 forced no rebase")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// On disk: any surviving chain is at most MaxDeltaChain long.
	_, _, chain, err := wal.LatestChain(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) > 2 {
		t.Fatalf("chain of %d links survived MaxDeltaChain=2", len(chain))
	}

	rec, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.Quiesce(); err != nil && !strings.Contains(err.Error(), "absent edge") {
		t.Fatal(err)
	}
	requireSameState(t, "post-rebase-recovery", rec, st)
}
