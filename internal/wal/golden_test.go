package wal

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// The journal's on-disk bytes for one group append, captured at commit
// 21e3f19: per record u32 len | u32 crc32c | u64 seq | u8 type | body.
// Its middle record, a resize (type 2, the new k), became a relabel
// (type 3, an opaque body) when a resize began to journal its relabel.
// The journal header is a disk-compat contract; it does not share the
// wire envelope in internal/frame.
func TestGoldenJournalGroup(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, n, err := j.AppendGroup([]GroupEntry{
		{Mut: &graph.Mutation{NewVertices: 1,
			NewEdges:     []graph.WeightedEdgeRecord{{U: 0, V: 3, Weight: 2}, {U: 4, V: 1, Weight: -1}},
			RemovedEdges: []graph.Edge{{From: 1, To: 2}}}},
		{Relabel: []byte{2, 0, 5}},
		{Mut: &graph.Mutation{}},
	})
	if err != nil || first != 1 {
		t.Fatalf("AppendGroup: first=%d err=%v", first, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	const want = "35000000" + "447af42b" + "0100000000000000" + "01" +
		"01000000" + "02000000" + "00000000" + "03000000" + "02000000" + "04000000" + "01000000" + "ffffffff" +
		"01000000" + "01000000" + "02000000" +
		"0c000000" + "15d23f51" + "0200000000000000" + "03" + "020005" +
		"15000000" + "c3de96e9" + "0300000000000000" + "01" + "00000000" + "00000000" + "00000000"
	if g := hex.EncodeToString(got); g != want || n != len(got) {
		t.Fatalf("journal group bytes changed (n=%d):\n got %s\nwant %s", n, g, want)
	}
}

// One relabel record's bytes: the same frame, type 3, and a body the
// journal carries opaque (the serving layer's EncodeDelta payload).
func TestGoldenJournalRelabel(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.AppendGroup([]GroupEntry{{Relabel: []byte{0x01, 0x00, 0xfe, 0xca}}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segName(7)))
	if err != nil {
		t.Fatal(err)
	}
	const want = "0d000000" + "9ba43da3" + "0700000000000000" + "03" + "0100feca"
	if g := hex.EncodeToString(got); g != want {
		t.Fatalf("relabel record bytes changed:\n got %s\nwant %s", g, want)
	}
	var recs []Record
	if _, err := Replay(dir, 6, func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 7 || recs[0].Type != RecordRelabel || hex.EncodeToString(recs[0].Relabel) != "0100feca" {
		t.Fatalf("replayed %+v", recs)
	}
}
