package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// TestOpenRefusesVersion1: Open reads version 2 only. parentDir, with its
// base checkpoint rewritten as version 1 or a version-1 link chained above
// its tip, and a batch journaled past the chain followed by a torn write,
// fails with ErrCheckpointVersion and leaves every file as it found it:
// the torn tail is not truncated, and nothing is replayed or rebased.
func TestOpenRefusesVersion1(t *testing.T) {
	readd := &graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{{U: 43, V: 12, Weight: 2}}}
	for name, asVersion1 := range map[string]func(dir string) error{
		"base": func(dir string) error {
			payload, err := wal.ReadCheckpoint(ckptDir(dir), 0)
			if err != nil {
				return err
			}
			payload[0] = 1
			return wal.WriteCheckpoint(ckptDir(dir), 0, payload)
		},
		// A new tip at the last record, 14: composing the chain would replay
		// the whole journal, torn tail included, before reaching it.
		"chain-tip": func(dir string) error {
			_, payload, err := wal.ReadDeltaCheckpoint(ckptDir(dir), 9)
			if err != nil {
				return err
			}
			payload[0] = 1
			binary.LittleEndian.PutUint64(payload[2:], 14)
			return wal.WriteDeltaCheckpoint(ckptDir(dir), 14, 9, payload)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := copyDataDir(t, parentDir)
			if err := asVersion1(dir); err != nil {
				t.Fatal(err)
			}
			appendJournal(t, dir, 14, readd)
			seg, err := os.OpenFile(filepath.Join(journalDir(dir), "wal-000000000000000e.log"), os.O_APPEND|os.O_WRONLY, 0)
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
				t.Fatal("Open accepted a version-1 checkpoint")
			}
			if !errors.Is(err, ErrCheckpointVersion) {
				t.Fatalf("Open's error does not wrap ErrCheckpointVersion: %v", err)
			}
			if after := dirFiles(t, dir); !maps.EqualFunc(after, before, bytes.Equal) {
				t.Fatalf("Open changed the refused dir: %d files before, %d after", len(before), len(after))
			}
		})
	}
}
