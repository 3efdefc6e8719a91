package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"io"
	"io/fs"
	"maps"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/api/client"
	"repro/internal/serve"
	"repro/internal/wal"
)

// The HTTP surface itself is tested in internal/api; these tests cover
// what is left in the command: flag plumbing, bootstrap and recovery, and
// shutdown.

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

// cancelled returns a context that is already done: run bootstraps or
// recovers, starts serving, and at once drains and closes.
func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func testConfig() daemonConfig {
	return daemonConfig{k: 4, c: 1.05, seed: 7, workers: 2, maxIter: 30, synthetic: 800,
		addr: "127.0.0.1:0", logDepth: 16, degrade: 1.05, fsync: "never"}
}

// An in-memory run serves, then on cancellation drains and closes.
func TestRunServesAndDrains(t *testing.T) {
	var out strings.Builder
	if err := run(cancelled(), testConfig(), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"spinnerd: serving", "listening on", "draining and checkpointing"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// A durable run must bootstrap a data dir; a second run over the same dir
// must recover from it (ignoring the graph flags), and both must drain and
// checkpoint on the way out.
func TestDurableBootstrapAndRecover(t *testing.T) {
	dir := t.TempDir()
	dc := testConfig()
	dc.dataDir, dc.checkpointEvery = dir, 8

	var first strings.Builder
	if err := run(cancelled(), dc, &first); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"durable in " + dir, "draining and checkpointing"} {
		if !strings.Contains(first.String(), want) {
			t.Fatalf("first run output missing %q:\n%s", want, first.String())
		}
	}

	var second strings.Builder
	dc.synthetic = 0
	dc.inPath = "/nonexistent/ignored-when-recovering"
	if err := run(cancelled(), dc, &second); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"spinnerd: recovering from " + dir, "recovered 800 vertices", "draining and checkpointing"} {
		if !strings.Contains(second.String(), want) {
			t.Fatalf("second run output missing %q:\n%s", want, second.String())
		}
	}
}

// A recovery takes its labels from the dir, whatever its -seed: a daemon
// booted with -seed 11 resizes and repairs, and the same dir recovered
// with -seed 12 serves the same k and labels. (-degrade is set out of
// reach, so only the resize's repair run moves labels.)
func TestRecoverySeed(t *testing.T) {
	dc := testConfig()
	dc.dataDir, dc.seed, dc.degrade = t.TempDir(), 11, 1e9
	ctx := context.Background()
	first := startDaemon(t, dc)
	if _, err := first.cli.Resize(ctx, 6); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		st, err := first.cli.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.K == 6 && st.Counters["Restabilizations"] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the resize and its repair never landed")
		}
	}
	want, err := first.cli.LookupAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	first.stop(t)

	dc.seed = 12
	got, err := startDaemon(t, dc).cli.LookupAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != 6 || !slices.Equal(got.Labels, want.Labels) {
		t.Fatalf("recovered with -seed 12: k=%d, labels equal: %v; want k=6 and the labels served before",
			got.K, slices.Equal(got.Labels, want.Labels))
	}
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// daemon is one run in a goroutine, serving on addr: cancel stops it, and
// done carries run's result.
type daemon struct {
	addr   string
	cli    *client.Client
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(t *testing.T, dc daemonConfig) *daemon {
	t.Helper()
	dc.addr = freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{addr: dc.addr, cli: client.New("http://" + dc.addr), cancel: cancel, done: make(chan error, 1)}
	go func() { d.done <- run(ctx, dc, io.Discard) }()
	t.Cleanup(func() { d.stop(t) })
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, err := d.cli.Health(context.Background()); err == nil {
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon on %s never became healthy", dc.addr)
		}
	}
}

// stop cancels the run and returns how long it took to return; it fails
// the test past 2 s, or if run returned an error.
func (d *daemon) stop(t *testing.T) time.Duration {
	t.Helper()
	if d.done == nil {
		return 0
	}
	start := time.Now()
	d.cancel()
	select {
	case err := <-d.done:
		d.done = nil
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("run still serving 2 s after cancellation")
	}
	return time.Since(start)
}

// Shutdown must not wait for the streams a daemon serves: an open
// /v1/watch stream or an attached follower's /v1/replicate stream ends
// with the daemon's context (without it, Shutdown waited out its 10 s).
func TestShutdownEndsOpenStreams(t *testing.T) {
	t.Run("watch", func(t *testing.T) {
		d := startDaemon(t, testConfig())
		w, err := d.cli.Watch(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if took := d.stop(t); took > time.Second {
			t.Fatalf("shutdown with an open watch stream took %v", took)
		}
	})
	t.Run("follower", func(t *testing.T) {
		dc := testConfig()
		dc.dataDir = t.TempDir()
		leader := startDaemon(t, dc)
		fc := testConfig()
		fc.synthetic, fc.dataDir, fc.follow = 0, t.TempDir(), leader.addr
		startDaemon(t, fc)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			st, err := leader.cli.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.Counters["ReplicaFramesSent"] > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the follower never attached a replication stream")
			}
		}
		if took := leader.stop(t); took > time.Second {
			t.Fatalf("shutdown with an attached follower took %v", took)
		}
	})
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
	dc := testConfig()
	dc.dataDir = dir
	err = run(cancelled(), dc, &out)
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
