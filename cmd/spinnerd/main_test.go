package main

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wal"
)

// The HTTP surface itself is tested in internal/api; these tests cover
// what is left in the command: flag plumbing and the demo/durable modes.

func TestParseWeights(t *testing.T) {
	w, err := parseWeights("teamA=4, teamB=1,default=2")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"teamA": 4, "teamB": 1, "default": 2}
	if len(w) != len(want) {
		t.Fatalf("parsed %v, want %v", w, want)
	}
	for k, v := range want {
		if w[k] != v {
			t.Fatalf("parsed %v, want %v", w, want)
		}
	}
	if w, err := parseWeights(""); err != nil || w != nil {
		t.Fatalf("empty weights = %v, %v; want nil, nil", w, err)
	}
	for _, bad := range []string{"teamA", "teamA=", "teamA=0", "teamA=-1", "teamA=x", "=3", "a=1,,b=2"} {
		if _, err := parseWeights(bad); err == nil {
			t.Fatalf("parseWeights(%q) accepted", bad)
		}
	}
}

// The -demo smoke mode must run end to end without a listener and report
// its counters.
func TestDemoMode(t *testing.T) {
	var sb strings.Builder
	dc := daemonConfig{k: 4, c: 1.05, seed: 7, workers: 2, maxIter: 30, synthetic: 800,
		logDepth: 16, degrade: 1.05, shards: 2, demo: 300 * time.Millisecond, fsync: "interval"}
	if err := run(dc, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"spinnerd: serving", "spinnerd demo:", "lookups", "snapshot v"} {
		if !strings.Contains(out, want) {
			t.Fatalf("demo output missing %q:\n%s", want, out)
		}
	}
}

// A durable demo run must bootstrap a data dir; a second run over the
// same dir must recover from it (ignoring the graph flags) and keep
// serving.
func TestDurableDemoBootstrapAndRecover(t *testing.T) {
	dir := t.TempDir()
	dc := daemonConfig{k: 4, c: 1.05, seed: 7, workers: 2, maxIter: 30, synthetic: 800,
		logDepth: 16, degrade: 1.05, shards: 2, demo: 200 * time.Millisecond,
		dataDir: dir, fsync: "never", checkpointEvery: 8}

	var first strings.Builder
	if err := run(dc, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "durable in "+dir) {
		t.Fatalf("first run did not bootstrap durably:\n%s", first.String())
	}

	var second strings.Builder
	dc.synthetic = 0
	dc.inPath = "/nonexistent/ignored-when-recovering"
	if err := run(dc, &second); err != nil {
		t.Fatal(err)
	}
	out := second.String()
	if !strings.Contains(out, "spinnerd: recovering from "+dir) {
		t.Fatalf("second run did not recover:\n%s", out)
	}
	if !strings.Contains(out, "recovered 800 vertices") {
		t.Fatalf("recovery lost the vertex space:\n%s", out)
	}
}

// version1Checkpoint is the full checkpoint payload of internal/serve's
// goldenCkptState (TestGoldenCheckpointPayloads) with its version set to
// 1: a 6-vertex store at journal seq 11.
const version1Checkpoint = "0100" + // version
	"0b00000000000000" + "0900000000000000" + "0600000000000000" + "0400000000000000" +
	"0200000000000000" + "0300000000000000" + "000000000000c03f" + "01" +
	"03000000" + "02000000" + "0000000000000000" + "0200000000000000" + "0600000000000000" +
	"06000000" + "00000000" + "00000000" + "01000000" + "01000000" + "02000000" + "02000000" +
	"0500000000000000" + "0f00000000000000" + "02000000" + "01000000" + "04000000" +
	"0600000000000000" + "0c00000000000000" + "0600000000000000" + "1e00000000000000" +
	"02000000" + "0100000002000000" + "0500000002000000" +
	"02000000" + "0000000002000000" + "0200000003000000" +
	"02000000" + "0100000003000000" + "0300000001000000" +
	"02000000" + "0200000001000000" + "0400000002000000" +
	"02000000" + "0300000002000000" + "0500000005000000" +
	"02000000" + "0400000005000000" + "0000000002000000"

// A data dir holding a version-1 checkpoint is refused: run returns
// serve.ErrCheckpointVersion without bootstrapping over the dir, and leaves
// every file in it as it was.
func TestRefusesVersion1DataDir(t *testing.T) {
	dir := t.TempDir()
	payload, err := hex.DecodeString(version1Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteCheckpoint(filepath.Join(dir, "checkpoints"), 11, payload); err != nil {
		t.Fatal(err)
	}
	files := func() map[string][]byte {
		got := make(map[string][]byte)
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			got[path], err = os.ReadFile(path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	before := files()

	var out strings.Builder
	dc := daemonConfig{k: 4, c: 1.05, seed: 7, workers: 2, maxIter: 30, synthetic: 800,
		logDepth: 16, degrade: 1.05, shards: 2, demo: 200 * time.Millisecond,
		dataDir: dir, fsync: "never"}
	err = run(dc, &out)
	if !errors.Is(err, serve.ErrCheckpointVersion) {
		t.Fatalf("run over a version-1 data dir returned %v, want serve.ErrCheckpointVersion\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "partitioning") {
		t.Fatalf("run bootstrapped over the refused dir:\n%s", out.String())
	}
	if after := files(); !maps.EqualFunc(after, before, bytes.Equal) {
		t.Fatalf("run changed the refused dir: %d files before, %d after", len(before), len(after))
	}
}
