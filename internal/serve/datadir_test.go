package serve

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/wal"
)

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

// TestOpenChecksCheckpointCounters: the cut counters a checkpoint stores
// must equal a count over the graph it holds — the check that tells a
// checkpoint encoded otherwise than its state was. parentDir's newest
// checkpoint is rewritten with its total one higher.
func TestOpenChecksCheckpointCounters(t *testing.T) {
	dir := copyDataDir(t, parentDir)
	seq, payload, err := wal.LatestCheckpoint(ckptDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	st.total++
	if err := wal.WriteCheckpoint(ckptDir(dir), seq, encodeCheckpoint(st)); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, parentCfg())
	if err == nil {
		rec.Close()
		t.Fatal("Open accepted a checkpoint whose stored total disagrees with its graph")
	}
	if !strings.Contains(err.Error(), "disagree with checkpoint") {
		t.Fatalf("Open failed for another reason: %v", err)
	}
}

// requireRefused journals a batch at next, in a segment of its own past
// dir's last record, followed by a torn write, and requires Open to fail
// with ErrCheckpointVersion and leave every file as it found it: the torn
// tail is not truncated, and nothing is replayed or checkpointed. It
// returns Open's error.
func requireRefused(t *testing.T, dir string, next uint64) error {
	t.Helper()
	appendJournal(t, dir, next, &graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{{U: 43, V: 12, Weight: 2}}})
	seg, err := os.OpenFile(filepath.Join(journalDir(dir), fmt.Sprintf("wal-%016x.log", next)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Write([]byte{9, 0, 0}); err != nil { // a frame header cut short
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	st, err := Open(dir, parentCfg())
	if err == nil {
		st.Close()
		t.Fatal("Open accepted the dir")
	}
	if !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("Open's error does not wrap ErrCheckpointVersion: %v", err)
	}
	if after := dirFiles(t, dir); !maps.EqualFunc(after, before, bytes.Equal) {
		t.Fatalf("Open changed the refused dir: %d files before, %d after", len(before), len(after))
	}
	return err
}

// TestOpenRefusesVersion1: parentDir with its newest checkpoint
// rewritten as version 1 is refused.
func TestOpenRefusesVersion1(t *testing.T) {
	t.Run("base", func(t *testing.T) {
		dir := copyDataDir(t, parentDir)
		seq, payload, err := wal.LatestCheckpoint(ckptDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		payload[0] = 1
		if err := wal.WriteCheckpoint(ckptDir(dir), seq, payload); err != nil {
			t.Fatal(err)
		}
		requireRefused(t, dir, 22)
	})
}

// TestOpenRefusesVersion2DataDirs: Open reads version 3 only. Each
// version-2 dir as checked in is refused before its journal is read —
// child-5fbc4f6 with its .dckp delta checkpoints, the only copy of its
// restabilizations' labels, among them — and the message names the last
// commit that opens it.
func TestOpenRefusesVersion2DataDirs(t *testing.T) {
	for _, dir := range version2Dirs {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			// Each dir's journal is one segment of at most 22 records, so
			// a segment starting at 100 is one of its own.
			err := requireRefused(t, copyDataDir(t, dir), 100)
			if !strings.Contains(err.Error(), "a37e735") {
				t.Fatalf("the refusal does not name the last commit that opens the dir: %v", err)
			}
		})
	}
}
