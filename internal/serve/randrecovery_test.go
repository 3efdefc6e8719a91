package serve

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
)

// randomHistory builds a reproducible random mutation script: steady
// edge churn, three in four edges re-adding one the script added before
// (its weight merges into the arc, so the journal outgrows the
// checkpoint), occasional growth, occasional removal of an edge the
// script added.
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
			if len(added) > 0 && rng.Intn(4) != 0 {
				e := added[rng.Intn(len(added))]
				mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{U: e.From, V: e.To, Weight: 2})
				continue
			}
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

// Recovery over randomized histories: a store that crashed (no final
// checkpoint) and recovered incrementally — its newest periodic
// checkpoint plus the journal tail above it — is bit-identical to an
// in-memory store that played the full history: labels, k and the
// integer cut counters. Both then keep working identically. The shards=N
// subtests keep their names from the sharded store; N seeds the history.
func TestIncrementalRecoveryBitIdenticalToFull(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				muts := randomHistory(rand.New(rand.NewSource(seed*1000+int64(shards))), 60)
				w, labels := twoClusters(50)
				ref, err := New(w, labels, Config{Options: storeOpts(2, 9), DegradeFactor: 1.05})
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()
				playHistory(t, ref, muts, 30, 4)

				dir := t.TempDir()
				w2, labels2 := twoClusters(50)
				st, err := NewDurable(dir, w2, labels2, durableCfg(3))
				if err != nil {
					t.Fatal(err)
				}
				playHistory(t, st, muts, 30, 4)
				requireSameState(t, "durable-vs-inmemory", st, ref)
				// Otherwise recovery would start from the initial checkpoint.
				if n := st.Counters().Checkpoints.Load(); n < 2 {
					t.Fatalf("%d checkpoints: the history took no periodic one", n)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}

				rec, err := Open(dir, durableCfg(3))
				if err != nil {
					t.Fatal(err)
				}
				defer rec.Close()
				if err := rec.Quiesce(); err != nil && !strings.Contains(err.Error(), "absent edge") {
					t.Fatal(err)
				}
				requireSameState(t, "recovered", rec, ref)
				if c := rec.Counters(); c.CutDrift.Load() != 0 {
					t.Fatalf("recovery reconciled drift %d times; must be exact", c.CutDrift.Load())
				}

				tail := randomHistory(rand.New(rand.NewSource(seed*7777)), 2)
				playHistory(t, rec, tail, -1, 0)
				playHistory(t, ref, tail, -1, 0)
				requireSameState(t, "post-recovery-continuation", rec, ref)
			})
		}
	}
}
