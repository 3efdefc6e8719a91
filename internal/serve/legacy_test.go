package serve

import (
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/wal"
)

// TestLegacyReplayFollowsTheWriter replays batches above a version-1
// checkpoint and checks each against what the writer, which kept one arc
// per addition, made of it: the pair's weight after, whether the merge rule
// would have applied the batch otherwise, and the pairs still holding
// several arcs.
func TestLegacyReplayFollowsTheWriter(t *testing.T) {
	w := graph.NewWeighted(5)
	w.AddEdge(0, 1, 2)
	w.AddEdge(1, 2, 3)
	w.AddEdge(2, 3, 1)
	w.AddEdge(3, 4, 2) // held twice by the writer: the base repeats it
	w.AddEdge(4, 3, 2)
	l := legacyArcs{}
	l.repeated(4, 3, 2, 2) // the higher endpoint's row names the pair again
	l.repeated(3, 4, 2, 2)
	p := func(u, v graph.VertexID) graph.Edge { return graph.Edge{From: u, To: v} }
	add := func(u, v graph.VertexID, x int32) graph.WeightedEdgeRecord {
		return graph.WeightedEdgeRecord{U: u, V: v, Weight: x}
	}
	for i, tc := range []struct {
		name    string
		m       graph.Mutation
		pair    graph.Edge
		weight  int32
		differs bool
		refused bool
		several map[graph.Edge][]int32
	}{
		{name: "re-add", m: graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{add(1, 0, 2)}},
			pair: p(0, 1), weight: 4, several: map[graph.Edge][]int32{p(0, 1): {2, 2}, p(3, 4): {2, 2}}},
		{name: "remove one of two arcs", m: graph.Mutation{RemovedEdges: []graph.Edge{p(0, 1)}},
			pair: p(0, 1), weight: 2, differs: true, several: map[graph.Edge][]int32{p(3, 4): {2, 2}}},
		{name: "remove one of the base's two arcs", m: graph.Mutation{RemovedEdges: []graph.Edge{p(4, 3)}},
			pair: p(3, 4), weight: 2, differs: true, several: map[graph.Edge][]int32{}},
		{name: "remove two of three arcs", m: graph.Mutation{
			NewEdges:     []graph.WeightedEdgeRecord{add(2, 1, 3), add(1, 2, 3)},
			RemovedEdges: []graph.Edge{p(1, 2), p(2, 1)}},
			pair: p(1, 2), weight: 3, differs: true, several: map[graph.Edge][]int32{}},
		{name: "remove three of two arcs: rejected", m: graph.Mutation{
			NewEdges:     []graph.WeightedEdgeRecord{add(2, 3, 1)},
			RemovedEdges: []graph.Edge{p(2, 3), p(2, 3), p(3, 2)}},
			pair: p(2, 3), weight: 1, several: map[graph.Edge][]int32{}},
		{name: "remove one of arcs of differing weights: refused", m: graph.Mutation{
			NewEdges:     []graph.WeightedEdgeRecord{add(2, 3, 5)},
			RemovedEdges: []graph.Edge{p(2, 3)}},
			pair: p(2, 3), weight: 1, refused: true, several: map[graph.Edge][]int32{}},
		{name: "remove the one arc", m: graph.Mutation{RemovedEdges: []graph.Edge{p(3, 2)}},
			pair: p(2, 3), weight: 0, several: map[graph.Edge][]int32{}},
	} {
		differs, err := l.replay(w, wal.Record{Seq: uint64(i + 1), Type: wal.RecordMutation, Mut: &tc.m})
		if (err != nil) != tc.refused || differs != tc.differs {
			t.Fatalf("%s: replay = (%v, %v), want differs %v, refused %v", tc.name, differs, err, tc.differs, tc.refused)
		}
		if got := w.EdgeWeight(tc.pair.From, tc.pair.To); got != tc.weight {
			t.Fatalf("%s: {%d,%d} weighs %d, want %d", tc.name, tc.pair.From, tc.pair.To, got, tc.weight)
		}
		if !maps.EqualFunc(l, tc.several, slices.Equal) {
			t.Fatalf("%s: pairs of several arcs %v, want %v", tc.name, l, tc.several)
		}
	}
}

// copyDataDir copies a data dir's checkpoints and journal into a fresh
// directory.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	for name, b := range dirFiles(t, src) {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// appendJournal journals batches past a data dir's last record, next.
func appendJournal(t *testing.T, dir string, next uint64, muts ...*graph.Mutation) {
	t.Helper()
	j, err := wal.Open(journalDir(dir), next, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	group := make([]wal.GroupEntry, len(muts))
	for i, m := range muts {
		group[i].Mut = m
	}
	if _, _, err := j.AppendGroup(group); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenChecksChainCounters: the cut counters a chain's tip stores must
// equal a count over the graph the chain composes to — the check that
// tells a chain composed otherwise than it was written. parentDir's seq 9
// link is rewritten with its total one higher.
func TestOpenChecksChainCounters(t *testing.T) {
	dir := copyDataDir(t, parentDir)
	prev, payload, err := wal.ReadDeltaCheckpoint(ckptDir(dir), 9)
	if err != nil {
		t.Fatal(err)
	}
	m, runs, err := decodeDeltaCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	m.total++
	if err := wal.WriteDeltaCheckpoint(ckptDir(dir), 9, prev, encodeDeltaCheckpoint(&ckptState{ckptMeta: m}, runs)); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, parentCfg())
	if err == nil {
		st.Close()
		t.Fatal("Open accepted a chain whose stored total disagrees with its graph")
	}
	if !strings.Contains(err.Error(), "disagree with checkpoint") {
		t.Fatalf("Open failed for another reason: %v", err)
	}
}

// TestOpenVersion1DataDir extends parentDir, whose checkpoints carry
// version 1, by journal records past its chain. parentDir's last batch
// added {12,43} at weight 2; re-adding it gives its writer two arcs.
func TestOpenVersion1DataDir(t *testing.T) {
	readd := &graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{{U: 43, V: 12, Weight: 2}}}
	remove := &graph.Mutation{RemovedEdges: []graph.Edge{{From: 12, To: 43}}}

	// Past the chain, the live replay applies the merge rule, so a removal
	// its writer made of one arc of two refuses recovery.
	t.Run("refuses-a-tail-it-cannot-replay", func(t *testing.T) {
		dir := copyDataDir(t, parentDir)
		appendJournal(t, dir, 14, readd, remove)
		st, err := Open(dir, parentCfg())
		if err == nil {
			st.Close()
			t.Fatal("Open replayed a removal of one of two parallel arcs by the merge rule")
		}
		if !strings.Contains(err.Error(), "record 15") {
			t.Fatalf("Open's error does not name record 15: %v", err)
		}
	})

	// A tail the rule replays as its writer did opens, and Open writes a
	// checkpoint of the current version at once: the records journaled
	// after it follow the merge rule, and the next recovery must replay
	// them so.
	t.Run("rebases", func(t *testing.T) {
		dir := copyDataDir(t, parentDir)
		appendJournal(t, dir, 14, readd)
		st, err := Open(dir, parentCfg())
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Snapshot().TotalWeight; got != 321+2 {
			st.Close()
			t.Fatalf("TotalWeight = %d after re-adding {12,43}, want 323", got)
		}
		baseSeq, payload, chain, err := wal.LatestChain(ckptDir(dir))
		if err != nil {
			st.Close()
			t.Fatal(err)
		}
		if base, err := decodeCheckpoint(payload); err != nil || base.legacy != nil || baseSeq != 14 || len(chain) != 0 {
			st.Close()
			t.Fatalf("newest checkpoint: seq %d, %d links, version 1 %v, err %v; want a current full one at 14",
				baseSeq, len(chain), base != nil && base.legacy != nil, err)
		}
		if err := st.Submit(remove); err != nil {
			st.Close()
			t.Fatal(err)
		}
		_ = st.Quiesce()
		before := st.Snapshot()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if before.TotalWeight != 321-2 {
			t.Fatalf("TotalWeight = %d after removing {12,43}, want 319", before.TotalWeight)
		}
		again, err := Open(dir, parentCfg())
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		_ = again.Quiesce()
		after := again.Snapshot()
		if after.TotalWeight != before.TotalWeight || after.CutWeight != before.CutWeight || !slices.Equal(after.Labels, before.Labels) {
			t.Fatalf("reopened: total %d, cut %d; before closing: total %d, cut %d (labels equal %v)",
				after.TotalWeight, after.CutWeight, before.TotalWeight, before.CutWeight, slices.Equal(after.Labels, before.Labels))
		}
		if d := again.Counters().CutDrift.Load(); d != 0 {
			t.Fatalf("CutDrift = %d after reopening", d)
		}
	})
}
