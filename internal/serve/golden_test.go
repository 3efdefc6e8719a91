package serve

// Golden-bytes tests: the expected values below were captured by running
// this file's fixtures at commit 21e3f19, before the watch-frame envelope
// moved to internal/frame, the checkpoint metadata block got one codec,
// and recovery/follower replay got one entry point; the checkpoint
// version became 2 when graph.Weighted became simple, and 3, with the
// delta codec's version 2, when the dead sections were dropped and a
// resize began to journal its relabel. They pin the
// /v1/watch wire bytes, the checkpoint payload layout, and — through
// the checked-in data dir — the on-disk files a whole quiesced history
// leaves behind and the state recovery reads back from them. A diff here
// means a format changed, which is a compatibility break, not a refactor.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func requireHex(t *testing.T, name string, got []byte, want string) {
	t.Helper()
	if g := hex.EncodeToString(got); g != want {
		t.Errorf("%s bytes changed:\n got %s\nwant %s", name, g, want)
	}
}

func TestGoldenWatchFrames(t *testing.T) {
	delta := &Delta{
		Seq: 5, Epoch: 2, Gen: 1, K: 4, N: 6,
		Runs:  []LabelRun{{Start: 1, Labels: []int32{2, 0}}, {Start: 5, Labels: []int32{3}}},
		Cross: 7, Total: 40,
	}
	frames := []struct {
		name string
		f    WatchFrame
		want string
	}{
		{"handshake", WatchFrame{Kind: WatchHandshake, Floor: 3, Next: 17},
			"0110000000" + "8a8ec29c" + "0300000000000000" + "1100000000000000"},
		{"delta", WatchFrame{Kind: WatchDelta, Delta: EncodeDelta(delta)},
			"0252000000" + "ea663427" + goldenDelta},
		{"heartbeat", WatchFrame{Kind: WatchHeartbeat, Floor: 3, Next: 18},
			"0310000000" + "e3098647" + "0300000000000000" + "1200000000000000"},
		{"end", WatchFrame{Kind: WatchEnd, Floor: 9, Next: 20},
			"0410000000" + "ea33f29c" + "0900000000000000" + "1400000000000000"},
	}
	for _, tc := range frames {
		enc := AppendWatchFrame(nil, tc.f)
		requireHex(t, tc.name, enc, tc.want)
		got, n, err := DecodeWatchFrame(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("%s: decode n=%d err=%v", tc.name, n, err)
		}
		if got.Kind != tc.f.Kind || got.Floor != tc.f.Floor || got.Next != tc.f.Next || !bytes.Equal(got.Delta, tc.f.Delta) {
			t.Fatalf("%s: round trip %+v, want %+v", tc.name, got, tc.f)
		}
	}
}

// goldenDelta is TestGoldenWatchFrames' delta as EncodeDelta writes it,
// and goldenDeltaV1 the same delta in version 1, with the empty bounds
// section that DecodeDelta no longer reads.
const (
	goldenDelta = "0200" + "0500000000000000" + "0200000000000000" + "0100000000000000" +
		"04000000" + "06000000" + "0700000000000000" + "2800000000000000" +
		"02000000" + "01000000" + "02000000" + "02000000" + "00000000" +
		"05000000" + "01000000" + "03000000"
	goldenDeltaV1 = "0100" + "0500000000000000" + "0200000000000000" + "0100000000000000" +
		"04000000" + "06000000" + "0700000000000000" + "2800000000000000" +
		"00000000" +
		"02000000" + "01000000" + "02000000" + "02000000" + "00000000" +
		"05000000" + "01000000" + "03000000"
)

// goldenCkptState is a fixed 6-vertex state with every metadata field
// set to a distinct value.
func goldenCkptState() *ckptState {
	w := graph.NewWeighted(6)
	w.AddEdge(0, 1, 2)
	w.AddEdge(1, 2, 3)
	w.AddEdge(2, 3, 1)
	w.AddEdge(3, 4, 2)
	w.AddEdge(4, 5, 5)
	w.AddEdge(0, 5, 2)
	return &ckptState{
		coordState: coordState{
			appliedAtRestab: 6, gen: 2, epoch: 3,
			baseline: 0.125, wantRestab: true, k: 3,
		},
		seq: 11, applied: 9, cross: 5, total: 15,
		affected: []graph.VertexID{1, 4},
		labels:   []int32{0, 0, 1, 1, 2, 2},
		w:        w,
	}
}

// The version is 3 since the lastReconcile field and the ranges section
// were dropped. goldenMetaHeadV2 is the same state in version 2, with
// lastReconcile 0 after appliedAtRestab and one range [0, 6] after k,
// which Open refuses (ErrCheckpointVersion).
const goldenMetaHead = "0300" + // version
	"0b00000000000000" + "0900000000000000" + "0600000000000000" +
	"0200000000000000" + "0300000000000000" + "000000000000c03f" + "01" +
	"03000000" + // k
	"06000000" // n
const goldenMetaHeadV2 = "0200" +
	"0b00000000000000" + "0900000000000000" + "0600000000000000" + "0000000000000000" +
	"0200000000000000" + "0300000000000000" + "000000000000c03f" + "01" +
	"03000000" + "01000000" + "0000000000000000" + "0600000000000000" +
	"06000000"
const goldenMetaTail = "0500000000000000" + "0f00000000000000" +
	"02000000" + "01000000" + "04000000"

func TestGoldenCheckpointPayloads(t *testing.T) {
	st := goldenCkptState()
	full := encodeCheckpoint(st)
	requireHex(t, "full checkpoint", full, goldenMetaHead+
		"00000000"+"00000000"+"01000000"+"01000000"+"02000000"+"02000000"+
		goldenMetaTail+
		// graph.Weighted.EncodeBinary: u64 vertices | arcs | edges | total
		// arc weight, then per row u32 degree + (u32 to, u32 weight) arcs.
		"0600000000000000"+"0c00000000000000"+"0600000000000000"+"1e00000000000000"+
		"02000000"+"0100000002000000"+"0500000002000000"+
		"02000000"+"0000000002000000"+"0200000003000000"+
		"02000000"+"0100000003000000"+"0300000001000000"+
		"02000000"+"0200000001000000"+"0400000002000000"+
		"02000000"+"0300000002000000"+"0500000005000000"+
		"02000000"+"0400000005000000"+"0000000002000000")

	dec, err := decodeCheckpoint(full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeCheckpoint(dec), full) {
		t.Fatal("full checkpoint does not re-encode to the same bytes")
	}
	if _, err := decodeCheckpoint(goldenCkptV2(full)); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("version-2 checkpoint: %v, want ErrCheckpointVersion", err)
	}
	// A k past core.MaxK is refused before anything is sized by it.
	huge := bytes.Clone(full)
	binary.LittleEndian.PutUint32(huge[len(goldenMetaHead)/2-8:], core.MaxK+1)
	if _, err := decodeCheckpoint(huge); err == nil || !strings.Contains(err.Error(), "k=65537") {
		t.Fatalf("checkpoint at k=MaxK+1: %v, want a k error", err)
	}
}

// goldenCkptV2 returns full, goldenCkptState's payload, as version 2
// wrote it.
func goldenCkptV2(full []byte) []byte {
	v2, _ := hex.DecodeString(goldenMetaHeadV2)
	return append(v2, full[len(goldenMetaHead)/2:]...)
}

// FuzzCheckpointPayload: the checkpoint decoder does not panic on
// arbitrary bytes, and the codec is canonical — whatever the decoder
// accepts re-encodes to exactly the input.
func FuzzCheckpointPayload(f *testing.F) {
	st := goldenCkptState()
	full := encodeCheckpoint(st)
	f.Add(full)
	f.Add(full[:len(full)-1]) // the graph's last arc cut short
	v1 := bytes.Clone(full)
	v1[0] = 1 // version 0100
	f.Add(v1)
	f.Add(goldenCkptV2(full)) // refused: the previous version
	var golden bytes.Buffer
	_ = st.w.EncodeBinary(&golden)
	meta := full[:len(full)-golden.Len()]
	for _, graphHex := range []string{
		// Two vertices whose rows each name the other twice.
		"0200000000000000" + "0400000000000000" + "0200000000000000" + "0400000000000000" +
			"02000000" + "0100000001000000" + "0100000001000000" +
			"02000000" + "0000000001000000" + "0000000001000000",
		// 2^40 edges over 4 vertices, none of them in the rows.
		"0400000000000000" + "0000000000020000" + "0000000000010000" + "0000000000000000" +
			"00000000" + "00000000" + "00000000" + "00000000",
	} {
		g, err := hex.DecodeString(graphHex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(bytes.Clone(meta), g...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if st, err := decodeCheckpoint(b); err == nil {
			if enc := encodeCheckpoint(st); !bytes.Equal(enc, b) {
				t.Fatalf("checkpoint re-encodes to\n%x\nnot\n%x", enc, b)
			}
		}
	})
}

// parentDir is the data dir playParentHistory leaves since the first
// commit after a37e735, when checkpoints became version 3 and a resize
// began to journal its relabel: the initial checkpoint, one periodic
// checkpoint at seq 19, and a journal of 21 records — 11 mutations, 2
// resize relabels and 8 merge relabels. Its expect.json is the state Open
// recovers from it; its "Why" says how that differs from child-182a728's.
const parentDir = "testdata/child-a37e735"

// version2Dirs are the data dirs the same history left with
// NoFinalCheckpoint while checkpoints were version 2, each named after
// the commit whose child wrote it: child-5fbc4f6 chained two .dckp delta
// checkpoints above its full one; child-3522d97's sharded store recorded
// two vertex ranges, and child-1cabcb4's one writer one; child-182a728
// drew every run from rng.At. Their journals hold resize records (type
// 2), which replay recomputed from the seed. Open refuses each
// (TestOpenRefusesVersion2DataDirs).
var version2Dirs = []string{"testdata/child-182a728", "testdata/child-1cabcb4", "testdata/child-3522d97", "testdata/child-5fbc4f6"}

func parentCfg() Config {
	cfg := durableCfg(4)
	cfg.Durability.SegmentBytes = 0 // default: one segment per process start
	return cfg
}

// playParentHistory is the quiesced history behind parentDir: add-only
// batches (including a non-positive weight and a u>v edge, the fast
// path's two normalizations), vertex growth, a removal, an absent-edge
// removal that rejects, and two elastic resizes.
func playParentHistory(t *testing.T, st *Store) {
	t.Helper()
	edges := func(step, n int) []graph.WeightedEdgeRecord {
		var es []graph.WeightedEdgeRecord
		for i := 0; i < n; i++ {
			es = append(es, graph.WeightedEdgeRecord{
				U: graph.VertexID((i*5 + 11*step) % 20), V: graph.VertexID(20 + (i*3+step)%20), Weight: 2})
		}
		return es
	}
	submit := func(m *graph.Mutation) {
		t.Helper()
		if err := st.Submit(m); err != nil {
			t.Fatal(err)
		}
		_ = st.Quiesce() // the rejected batch's error stays sticky in Err
	}
	resize := func(k int) {
		t.Helper()
		if err := st.Resize(k); err != nil {
			t.Fatal(err)
		}
		_ = st.Quiesce()
	}
	for step := 0; step < 4; step++ {
		submit(&graph.Mutation{NewEdges: edges(step, 8)})
	}
	grow := &graph.Mutation{NewVertices: 3, NewEdges: edges(4, 4)}
	for i := 0; i < 3; i++ {
		grow.NewEdges = append(grow.NewEdges, graph.WeightedEdgeRecord{
			U: graph.VertexID(40 + i), V: graph.VertexID(7 * i), Weight: 3})
	}
	submit(grow)
	resize(3)
	submit(&graph.Mutation{RemovedEdges: []graph.Edge{{From: 0, To: 20}}, NewEdges: edges(5, 3)})
	submit(&graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{
		{U: 35, V: 2, Weight: 0}, {U: 41, V: 5, Weight: -4}, {U: 3, V: 30, Weight: 2}}})
	submit(&graph.Mutation{NewEdges: edges(6, 8)})
	submit(&graph.Mutation{RemovedEdges: []graph.Edge{{From: 1, To: 42}}}) // absent: rejected
	submit(&graph.Mutation{NewEdges: edges(7, 6)})
	resize(2)
	submit(&graph.Mutation{NewVertices: 1, NewEdges: []graph.WeightedEdgeRecord{{U: 43, V: 12, Weight: 2}}})
}

type parentExpect struct {
	K           int
	Labels      []int32
	Applied     uint64
	CutWeight   int64
	TotalWeight int64
	JournalSeq  uint64
	Replayed    int64
}

func dirFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	for _, sub := range []string{"checkpoints", "journal"} {
		ents, err := os.ReadDir(filepath.Join(root, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(root, sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[sub+"/"+e.Name()] = b
		}
	}
	return files
}

func TestParentDataDir(t *testing.T) {
	// Today's code, playing the same history, must leave the same bytes
	// on disk as when the labels, the journal's records, the checkpoint
	// layout or the checkpoint rule last changed.
	t.Run("writes-identical-files", func(t *testing.T) {
		wantFiles := dirFiles(t, parentDir)
		dir := t.TempDir()
		w, labels := twoClusters(20)
		st, err := NewDurable(dir, w, labels, parentCfg())
		if err != nil {
			t.Fatal(err)
		}
		playParentHistory(t, st)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		got := dirFiles(t, dir)
		for name, b := range wantFiles {
			if !bytes.Equal(got[name], b) {
				t.Errorf("%s: %d bytes written, differ from the recorded %d", name, len(got[name]), len(b))
			}
		}
		if len(got) != len(wantFiles) {
			t.Errorf("wrote %d files, %d recorded", len(got), len(wantFiles))
		}
	})

	// And the dir must recover to its recorded state.
	t.Run("recovers-parent-state", func(t *testing.T) {
		t.Run(filepath.Base(parentDir), func(t *testing.T) { recoverParentState(t, parentDir) })
	})
}

// recoverParentState opens a copy of dir and compares what it recovers
// with its expect.json.
func recoverParentState(t *testing.T, dir string) {
	raw, err := os.ReadFile(filepath.Join(dir, "expect.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want parentExpect
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	st, err := Open(copyDataDir(t, dir), parentCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_ = st.Quiesce()
	snap, ctr := st.Snapshot(), st.Counters()
	got := parentExpect{
		K: snap.K, Labels: snap.Labels, Applied: snap.AppliedBatches,
		CutWeight: snap.CutWeight, TotalWeight: snap.TotalWeight,
		JournalSeq: st.JournalSeq(), Replayed: ctr.ReplayedRecords.Load(),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v\nwant %+v", got, want)
	}
	if ctr.CutDrift.Load() != 0 {
		t.Fatalf("CutDrift = %d after recovering %s", ctr.CutDrift.Load(), dir)
	}
}
