package replica

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/wal"
)

// twoClusters mirrors the serve test graph: two dense pseudo-random
// clusters joined by a single bridge, with the obvious 2-way labeling.
func twoClusters(half int) (*graph.Weighted, []int32) {
	w := graph.NewWeighted(2 * half)
	addClique := func(off int) {
		for i := 0; i < half; i++ {
			for j := 1; j <= 6; j++ {
				u := (i + j*j*7 + 13*j) % half
				if u != i && i < u {
					dup := false
					for _, a := range w.Neighbors(graph.VertexID(off + i)) {
						if a.To == graph.VertexID(off+u) {
							dup = true
							break
						}
					}
					if !dup {
						w.AddEdge(graph.VertexID(off+i), graph.VertexID(off+u), 2)
					}
				}
			}
		}
	}
	addClique(0)
	addClique(half)
	w.AddEdge(0, graph.VertexID(half), 2)
	labels := make([]int32, 2*half)
	for v := half; v < 2*half; v++ {
		labels[v] = 1
	}
	return w, labels
}

func storeOpts(k int, seed uint64) core.Options {
	o := core.DefaultOptions(k)
	o.Seed = seed
	o.NumWorkers = 2
	o.MaxIterations = 60
	return o
}

// leaderCfg is the shared store configuration: small segments so the
// retention race is reachable, and identical partitioner options on both
// sides so resizes replay bit-identically.
func leaderCfg(checkpointEvery int) serve.Config {
	return serve.Config{
		Options:       storeOpts(2, 9),
		DegradeFactor: 1.05,
		Durability: serve.DurabilityConfig{
			CheckpointEvery:   checkpointEvery,
			NoFinalCheckpoint: true,
			SegmentBytes:      1 << 10,
		},
	}
}

func newLeader(t *testing.T, dir string, checkpointEvery int) *serve.Store {
	t.Helper()
	w, labels := twoClusters(50)
	st, err := serve.NewDurable(dir, w, labels, leaderCfg(checkpointEvery))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// fastServer is a leader Server tuned for test latency.
func fastServer(st *serve.Store, dir string, epoch func() uint64) *Server {
	srv := NewServer(st, dir, epoch)
	srv.Heartbeat = 20 * time.Millisecond
	return srv
}

func leaderHTTP(t testing.TB, st *serve.Store, dir string) (*httptest.Server, *Server) {
	t.Helper()
	srv := fastServer(st, dir, func() uint64 { return 1 })
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replicate", srv.ServeStream)
	mux.HandleFunc("GET /v1/replicate/checkpoint", srv.ServeCheckpoint)
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs, srv
}

func startFollower(t *testing.T, leaderURL, dir string, cfg serve.Config) *Follower {
	t.Helper()
	fl, err := StartFollower(FollowerConfig{
		Leader: leaderURL, Dir: dir, Store: cfg, Reconnect: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	return fl
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitApplied blocks until the follower has applied through seq and its
// store has settled (quiesced), so snapshots are comparable.
func waitApplied(t *testing.T, fl *Follower, seq uint64) {
	t.Helper()
	waitFor(t, 60*time.Second, fmt.Sprintf("follower to apply seq %d (at %d)", seq, fl.AppliedSeq()), func() bool {
		if err := fl.Err(); err != nil {
			t.Fatalf("follower died: %v", err)
		}
		return fl.AppliedSeq() >= seq
	})
	if err := fl.Store().Quiesce(); err != nil {
		t.Fatal(err)
	}
}

// requireSameState is the replication bit-identity comparator: labels, k,
// and the integer cut counters, all over the exported surface.
func requireSameState(t *testing.T, name string, got, want *serve.Store) {
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

// randomHistory drives a randomized quiesced mutate/resize history against
// the leader: growth, random edges, and interleaved elastic resizes — the
// scripted shape of serve's runScript with rng-driven edges.
func randomHistory(t *testing.T, st *serve.Store, seed uint64, steps int) {
	t.Helper()
	src := rng.New(seed)
	n := len(st.Snapshot().Labels)
	for step := 0; step < steps; step++ {
		mut := &graph.Mutation{}
		if step == 2 {
			mut.NewVertices = 5
			for i := 0; i < 5; i++ {
				mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{
					U: graph.VertexID(n + i), V: graph.VertexID(src.Intn(n)), Weight: 2})
			}
			n += 5
		}
		for i := 0; i < 20; i++ {
			u := graph.VertexID(src.Intn(n))
			v := graph.VertexID(src.Intn(n))
			if u != v {
				mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{U: u, V: v, Weight: 1 + int32(src.Intn(3))})
			}
		}
		if err := st.Submit(mut); err != nil {
			t.Fatal(err)
		}
		if err := st.Quiesce(); err != nil {
			t.Fatal(err)
		}
		if step == 3 {
			if err := st.Resize(3); err != nil {
				t.Fatal(err)
			}
			if err := st.Quiesce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Resize(4); err != nil && err != serve.ErrKUnchanged {
		t.Fatal(err)
	}
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
}

// churnHistory submits 120 batches without a quiesce between them: 20
// random edges each, 2 appended vertices in every 10th, and a Resize(3)
// at batch 60, so restabilizations — the resize's repair among them —
// merge while batches arrive. It ends with one Quiesce.
func churnHistory(t *testing.T, st *serve.Store, seed uint64) {
	t.Helper()
	src := rng.New(seed)
	n := len(st.Snapshot().Labels)
	for i := 0; i < 120; i++ {
		if i == 60 {
			if err := st.Resize(3); err != nil {
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
	if err := st.Quiesce(); err != nil {
		t.Fatal(err)
	}
}

// The tentpole property: a follower that tails the stream to seq S is
// bit-identical — labels, k, integer cut counters — to the leader at S:
// across a randomized quiesced
// mutate/resize history that spans checkpoints, segment rotations and
// journal truncation on the leader, and across churn whose
// restabilizations merge at whatever batch the leader has reached (the
// follower adopts each journaled relabel where it stands). The subtests
// keep the names they had when the store was split into shards=N vertex
// ranges; N seeds each history.
func TestFollowerBitIdenticalToLeader(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("churn/shards=%d", shards), func(t *testing.T) {
			ldir, fdir := t.TempDir(), t.TempDir()
			leader := newLeader(t, ldir, 16)
			hs, _ := leaderHTTP(t, leader, ldir)
			fl := startFollower(t, hs.URL, fdir, leaderCfg(16))

			churnHistory(t, leader, 5+uint64(shards))
			if leader.Counters().Restabilizations.Load() < 1 {
				t.Fatal("no restabilization; the churn must at least merge the resize's repair")
			}
			waitApplied(t, fl, leader.JournalSeq())
			requireSameState(t, "churned follower", fl.Store(), leader)
			if fl.Store().Counters().Restabilizations.Load() != leader.Counters().Restabilizations.Load() {
				t.Fatalf("follower adopted %d relabels, leader merged %d",
					fl.Store().Counters().Restabilizations.Load(), leader.Counters().Restabilizations.Load())
			}
		})
	}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ldir, fdir := t.TempDir(), t.TempDir()
			leader := newLeader(t, ldir, 4)
			hs, _ := leaderHTTP(t, leader, ldir)
			fl := startFollower(t, hs.URL, fdir, leaderCfg(4))

			randomHistory(t, leader, 42+uint64(shards), 6)
			waitApplied(t, fl, leader.JournalSeq())
			requireSameState(t, "follower", fl.Store(), leader)

			if fl.Store().JournalSeq() != leader.JournalSeq() {
				t.Fatalf("follower journal at seq %d, leader at %d", fl.Store().JournalSeq(), leader.JournalSeq())
			}
			if err := fl.Store().Submit(&graph.Mutation{NewVertices: 1}); err != serve.ErrReadOnly {
				t.Fatalf("follower Submit err = %v, want ErrReadOnly", err)
			}
		})
	}
}

// limitedWriter cuts the response after budget bytes — a torn stream
// frame mid-flight, the network fault the re-request path must absorb.
type limitedWriter struct {
	http.ResponseWriter
	budget int
}

func (lw *limitedWriter) Write(p []byte) (int, error) {
	if lw.budget <= 0 {
		return 0, fmt.Errorf("limitedWriter: budget exhausted")
	}
	if len(p) > lw.budget {
		n, _ := lw.ResponseWriter.Write(p[:lw.budget])
		lw.budget = 0
		return n, fmt.Errorf("limitedWriter: budget exhausted")
	}
	lw.budget -= len(p)
	return lw.ResponseWriter.Write(p)
}

// Kill the stream mid-frame, repeatedly: the follower must discard the
// torn frame, re-request from applied_seq, never apply a partial group,
// and still converge bit-identically.
func TestFollowerResumesAfterTornStream(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	leader := newLeader(t, ldir, -1) // no periodic checkpoints: the full history streams
	srv := fastServer(leader, ldir, func() uint64 { return 1 })

	// History first, so the torn connection cuts through real record
	// frames, not heartbeats.
	randomHistory(t, leader, 7, 6)
	S := leader.JournalSeq()

	var attempts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replicate/checkpoint", srv.ServeCheckpoint)
	mux.HandleFunc("GET /v1/replicate", func(w http.ResponseWriter, r *http.Request) {
		a := attempts.Add(1)
		if a <= 4 {
			// Grow the budget per attempt so each connection makes some
			// progress but still dies mid-frame (the handshake alone is 25
			// bytes).
			srv.ServeStream(&limitedWriter{ResponseWriter: w, budget: 30 + 40*int(a)}, r)
			return
		}
		srv.ServeStream(w, r)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)

	fl := startFollower(t, hs.URL, fdir, leaderCfg(-1))
	waitApplied(t, fl, S)
	requireSameState(t, "torn-stream follower", fl.Store(), leader)

	ctr := fl.Store().Counters()
	if got := ctr.ReplicaReconnects.Load(); got < 4 {
		t.Fatalf("ReplicaReconnects = %d, want >= 4", got)
	}
	// Exactly one apply per leader record: a torn frame never half-applies
	// and a resumed stream never double-applies.
	if got := ctr.ReplicaRecordsApplied.Load(); got != int64(S) {
		t.Fatalf("ReplicaRecordsApplied = %d, want %d", got, S)
	}
}

// Promotion seals a new epoch, flips the store read-write, and fences the
// deposed leader: late frames carrying the old epoch are rejected, both
// at the frame handler and at the stream handshake (409).
func TestPromoteFencesDeposedLeader(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	leader := newLeader(t, ldir, 4)
	hs, _ := leaderHTTP(t, leader, ldir)
	fl := startFollower(t, hs.URL, fdir, leaderCfg(4))

	randomHistory(t, leader, 11, 4)
	waitApplied(t, fl, leader.JournalSeq())

	oldEpoch := fl.Epoch()
	sealed := fl.AppliedSeq()
	ep, err := fl.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if ep.Epoch != oldEpoch+1 || ep.SealedSeq != sealed {
		t.Fatalf("promoted to %+v, want epoch %d sealing seq %d", ep, oldEpoch+1, sealed)
	}
	// The new epoch is durable before writes open.
	if e, ok, err := LoadEpoch(fdir); err != nil || !ok || e != ep {
		t.Fatalf("LoadEpoch = %+v,%v,%v want %+v", e, ok, err, ep)
	}
	// A late frame from the deposed leader is fenced and counted.
	before := fl.Store().Counters().ReplicaFencedFrames.Load()
	if err := fl.handleFrame(Frame{Kind: FrameHeartbeat, Epoch: oldEpoch, LeaderSeq: sealed + 99}); err == nil {
		t.Fatal("old-epoch frame accepted after promotion")
	}
	if got := fl.Store().Counters().ReplicaFencedFrames.Load(); got != before+1 {
		t.Fatalf("ReplicaFencedFrames = %d, want %d", got, before+1)
	}
	if fl.AppliedSeq() != sealed || fl.LeaderSeq() > sealed+50 {
		t.Fatalf("fenced frame moved the watermark: applied %d, leader %d", fl.AppliedSeq(), fl.LeaderSeq())
	}
	// The promoted node accepts writes — no acknowledged state lost, new
	// writes journaled after the sealed position.
	if err := fl.Store().Submit(&graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{{U: 1, V: 2, Weight: 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := fl.Store().Quiesce(); err != nil {
		t.Fatal(err)
	}
	if got := fl.Store().JournalSeq(); got != sealed+1 {
		t.Fatalf("post-promotion journal seq %d, want %d", got, sealed+1)
	}
	// Promote is idempotent.
	again, err := fl.Promote()
	if err != nil || again != ep {
		t.Fatalf("second Promote = %+v,%v want %+v", again, err, ep)
	}
	// Stream handshake fencing on the leader side: a stale epoch is 409.
	resp, err := http.Get(hs.URL + "/v1/replicate?after_seq=0&epoch=99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale-epoch stream status %d, want 409", resp.StatusCode)
	}
}

// A crashed follower resumes from its OWN checkpoint + journal tail — the
// leader checkpoint fetch happens once, on first bootstrap only.
func TestFollowerCrashResumesFromOwnCheckpoint(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	leader := newLeader(t, ldir, 4)
	srv := fastServer(leader, ldir, func() uint64 { return 1 })

	var ckptFetches atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replicate", srv.ServeStream)
	mux.HandleFunc("GET /v1/replicate/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		ckptFetches.Add(1)
		srv.ServeCheckpoint(w, r)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)

	fl := startFollower(t, hs.URL, fdir, leaderCfg(4))
	randomHistory(t, leader, 23, 4)
	waitApplied(t, fl, leader.JournalSeq())
	resumeAt := fl.AppliedSeq()
	if got := ckptFetches.Load(); got != 1 {
		t.Fatalf("checkpoint fetched %d times during bootstrap, want 1", got)
	}
	fl.Close() // NoFinalCheckpoint: restart recovers checkpoint + own journal tail

	// The leader moves on while the follower is down.
	randomHistory(t, leader, 29, 3)

	fl2 := startFollower(t, hs.URL, fdir, leaderCfg(4))
	if got := fl2.AppliedSeq(); got < resumeAt {
		t.Fatalf("restart resumed at seq %d, want >= %d (own state, not re-bootstrap)", got, resumeAt)
	}
	if got := ckptFetches.Load(); got != 1 {
		t.Fatalf("checkpoint fetched %d times after restart, want still 1", got)
	}
	waitApplied(t, fl2, leader.JournalSeq())
	requireSameState(t, "restarted follower", fl2.Store(), leader)
}

// The truncate-under-replication race: while a follower is connected
// (tracked), leader checkpoints must not reclaim journal segments the
// stream still needs; once it disconnects, truncation resumes.
func TestRetentionProtectsConnectedFollower(t *testing.T) {
	ldir := t.TempDir()
	w, labels := twoClusters(50)
	cfg := leaderCfg(2)
	cfg.Durability.SegmentBytes = 256 // many small segments
	cfg.Durability.KeepCheckpoints = 1
	leader, err := serve.NewDurable(ldir, w, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })
	srv := fastServer(leader, ldir, func() uint64 { return 1 })

	// A connected follower that has consumed nothing yet.
	id := srv.track(1)

	// Each batch adds one edge 200 times. The weights merge into one arc,
	// and the journal grows about 2.4 KB a batch, so it outweighs the
	// checkpoint every few batches and the checkpoint rule fires.
	churn := func(batches int) {
		t.Helper()
		for i := 0; i < batches; i++ {
			m := &graph.Mutation{}
			for r := 0; r < 200; r++ {
				m.NewEdges = append(m.NewEdges, graph.WeightedEdgeRecord{
					U: graph.VertexID(i % 100), V: graph.VertexID((i*7 + 1) % 100), Weight: 2})
			}
			if err := leader.Submit(m); err != nil {
				t.Fatal(err)
			}
			if err := leader.Quiesce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(10)
	waitFor(t, 30*time.Second, "leader checkpoints", func() bool {
		return leader.Counters().Checkpoints.Load() >= 3
	})
	// Everything from seq 1 must still be readable despite the checkpoints.
	if _, last, gap := readJournal(t, serve.JournalDir(ldir), leader.JournalSeq()); gap || last < 10 {
		t.Fatalf("retained frames from seq 1: gap=%v, through %d, want no gap and >= 10", gap, last)
	}

	// Disconnect: the pin clears and the next checkpoint reclaims.
	srv.untrack(id)
	waitFor(t, 30*time.Second, "journal truncation after disconnect", func() bool {
		churn(2)
		_, _, gap := readJournal(t, serve.JournalDir(ldir), 1)
		return gap
	})
}

// streamCount reports how many streams the server is tracking.
func (s *Server) streamCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.followers)
}

// edgeBatch is a one-edge mutation distinct per i.
func edgeBatch(i int) *graph.Mutation {
	return &graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{
		{U: graph.VertexID(i % 100), V: graph.VertexID((i*7 + 1) % 100), Weight: 2}}}
}

// The stream is pushed, not polled: with the heartbeat an hour away the
// only things that can move a parked stream are the coordinator's journal
// wake-up and the request context. A batch submitted to an idle leader
// reaches the follower, a burst of N commits (plus the relabels its
// restabilizations journal) arrives in at most that many frames with
// every record applied exactly once (coalesced wake-ups lose nothing),
// and a stream still ends when its epoch changes or its client goes away.
func TestStreamDeliversWithoutPolling(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	leader := newLeader(t, ldir, -1)
	var epoch atomic.Uint64
	epoch.Store(1)
	srv := NewServer(leader, ldir, epoch.Load)
	srv.Heartbeat = time.Hour
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replicate", srv.ServeStream)
	mux.HandleFunc("GET /v1/replicate/checkpoint", srv.ServeCheckpoint)
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	fl := startFollower(t, hs.URL, fdir, leaderCfg(-1))
	waitFor(t, 30*time.Second, "the follower's stream", func() bool { return srv.streamCount() == 1 })

	// Idle leader, one batch.
	if err := leader.Submit(edgeBatch(0)); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, fl, 1)
	if err := leader.Quiesce(); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, fl, leader.JournalSeq())

	// A burst: the coordinator groups what it drains, the stream coalesces
	// the wake-ups it was too busy to take.
	const burst = 64
	lctr, fctr := leader.Counters(), fl.Store().Counters()
	frames0, applied0, seq0 := lctr.ReplicaFramesSent.Load(), fctr.ReplicaRecordsApplied.Load(), leader.JournalSeq()
	for i := 1; i <= burst; i++ {
		if err := leader.Submit(edgeBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Quiesce(); err != nil {
		t.Fatal(err)
	}
	records := int64(leader.JournalSeq() - seq0)
	if records < burst {
		t.Fatalf("leader journaled %d records for a burst of %d", records, burst)
	}
	waitApplied(t, fl, leader.JournalSeq())
	if got := fctr.ReplicaRecordsApplied.Load() - applied0; got != records {
		t.Fatalf("follower applied %d records for the %d the burst journaled", got, records)
	}
	if got := lctr.ReplicaFramesSent.Load() - frames0; got < 1 || got > records {
		t.Fatalf("burst of %d records sent %d frames, want between 1 and %d", records, got, records)
	}
	requireSameState(t, "pushed follower", fl.Store(), leader)

	// A second, raw stream parked at the head of the journal.
	openStream := func(ctx context.Context) *http.Response {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/v1/replicate?after_seq=%d&epoch=%d", hs.URL, leader.JournalSeq(), epoch.Load()), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("raw stream: %s", resp.Status)
		}
		waitFor(t, 30*time.Second, "the raw stream", func() bool { return srv.streamCount() == 2 })
		return resp
	}

	// Hang-up: the request context alone unparks the handler.
	ctx, cancel := context.WithCancel(context.Background())
	resp := openStream(ctx)
	cancel()
	resp.Body.Close()
	waitFor(t, 30*time.Second, "the hung-up stream to end", func() bool { return srv.streamCount() == 1 })

	// Epoch change: the next commit wakes the stream, which must end
	// rather than ship that commit under the epoch it was opened with.
	resp = openStream(context.Background())
	defer resp.Body.Close()
	epoch.Store(2)
	if err := leader.Submit(edgeBatch(burst + 1)); err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body) // returns once the handler has
	if err != nil {
		t.Fatal(err)
	}
	for len(body) > 0 {
		fr, n, err := DecodeFrame(body)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Kind != FrameHandshake {
			t.Fatalf("deposed stream sent a kind-%d frame under epoch %d", fr.Kind, fr.Epoch)
		}
		body = body[n:]
	}
}

// The journal, not a seed, says what the labels are: a leader booted with
// seed 11 resizes inside an unquiesced group, with growth batches before
// and after the resize in the same drained group, and both a follower
// bootstrapped with seed 12 and the leader recovered with seed 12 reach
// its labels, k and counters bit for bit. The group is held together by a
// journal write that blocks until the rest of it is queued.
func TestOtherSeedReachesJournaledLabels(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	cfg := leaderCfg(-1) // only the initial checkpoint: the journal carries the resize
	cfg.Options.Seed = 11
	w, labels := twoClusters(50)
	leader, err := serve.NewDurable(ldir, w, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })
	n := len(labels)
	grow := func() *graph.Mutation {
		m := &graph.Mutation{NewVertices: 3}
		for i := 0; i < 3; i++ {
			m.NewEdges = append(m.NewEdges,
				graph.WeightedEdgeRecord{U: graph.VertexID(n + i), V: graph.VertexID((7*n + 13*i) % 100), Weight: 2},
				graph.WeightedEdgeRecord{U: graph.VertexID(n + i), V: graph.VertexID((n + i + 1) % (n + 3)), Weight: 1})
		}
		n += 3
		return m
	}
	submit := func(m *graph.Mutation) {
		t.Helper()
		if err := leader.Submit(m); err != nil {
			t.Fatal(err)
		}
	}

	// The first batch's journal write parks the coordinator until the
	// group behind it is queued.
	var parked atomic.Bool
	parked.Store(true)
	entered, release := make(chan struct{}), make(chan struct{})
	restore := wal.InjectFaults(func(f *os.File, b []byte) (int, error) {
		if parked.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return f.Write(b)
	}, nil)
	defer restore()
	submit(&graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{{U: 1, V: 60, Weight: 3}}})
	<-entered
	submit(grow())
	submit(grow())
	if err := leader.Resize(4); err != nil {
		t.Fatal(err)
	}
	submit(grow())
	submit(grow())
	close(release)
	if err := leader.Quiesce(); err != nil {
		t.Fatal(err)
	}
	restore()

	// The resize's relabel sits between the growth batches that came
	// before it and those that came after it.
	var kinds []string
	if _, err := wal.Replay(serve.JournalDir(ldir), 0, func(r wal.Record) error {
		kind := "mutation"
		if r.Type == wal.RecordRelabel {
			d, err := serve.DecodeDelta(r.Relabel)
			if err != nil {
				return err
			}
			kind = fmt.Sprintf("relabel gen %d k=%d", d.Gen, d.K)
		}
		kinds = append(kinds, kind)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"mutation", "mutation", "mutation", "relabel gen 1 k=4", "mutation", "mutation"}
	if len(kinds) < len(want) || !slices.Equal(kinds[:len(want)], want) {
		t.Fatalf("journal holds %v, want it to start %v", kinds, want)
	}
	if got := leader.Snapshot(); got.K != 4 || len(got.Labels) != 112 {
		t.Fatalf("leader at k=%d with %d labels, want k=4 with 112", got.K, len(got.Labels))
	}

	elastic := func(st *serve.Store) [2]int64 {
		c := st.Counters()
		return [2]int64{c.ElasticResizes.Load(), c.ElasticSeedMoved.Load()}
	}
	hs, _ := leaderHTTP(t, leader, ldir)
	other := leaderCfg(-1)
	other.Options.Seed = 12
	fl := startFollower(t, hs.URL, fdir, other)
	waitApplied(t, fl, leader.JournalSeq())
	requireSameState(t, "follower started with seed 12", fl.Store(), leader)
	if got, want := elastic(fl.Store()), elastic(leader); got != want || want[0] != 1 {
		t.Fatalf("follower's resizes and seed-moved vertices %v, leader's %v", got, want)
	}

	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	other.DegradeFactor = 1e9 // the recovered leader starts no run of its own before the comparison
	rec, err := serve.Open(ldir, other)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	requireSameState(t, "leader recovered with seed 12", rec, leader)
	if got, want := elastic(rec), elastic(leader); got != want {
		t.Fatalf("recovered resizes and seed-moved vertices %v, leader's %v", got, want)
	}
	if err := rec.Resize(4); err != serve.ErrKUnchanged {
		t.Fatalf("Resize(4) after recovery = %v, want ErrKUnchanged", err)
	}
}

// A follower reaches its leader's labels whatever seed it was started
// with: a streamed resize carries its relabel in the journal, so the
// follower applies the leader's labels rather than recomputing them from
// its own seed, and its own journal holds the same relabel.
func TestFollowerAdoptsLeaderSeed(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	lcfg := leaderCfg(-1)
	lcfg.Options.Seed = 11
	w, labels := twoClusters(50)
	leader, err := serve.NewDurable(ldir, w, labels, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })
	hs, _ := leaderHTTP(t, leader, ldir)
	fcfg := leaderCfg(-1)
	fcfg.Options.Seed = 0
	fl := startFollower(t, hs.URL, fdir, fcfg)

	if err := leader.Resize(4); err != nil {
		t.Fatal(err)
	}
	if err := leader.Quiesce(); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, fl, leader.JournalSeq())
	requireSameState(t, "follower started with seed 0", fl.Store(), leader)
	relabelK := func(dir string) []int {
		t.Helper()
		var ks []int
		if _, err := wal.Replay(serve.JournalDir(dir), 0, func(r wal.Record) error {
			if r.Type == wal.RecordRelabel {
				d, err := serve.DecodeDelta(r.Relabel)
				if err != nil {
					return err
				}
				ks = append(ks, d.K)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return ks
	}
	if got, want := relabelK(fdir), relabelK(ldir); len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("follower journals relabels to k %v, leader %v; want the same, non-empty", got, want)
	}
}

// SaveEpoch installs through wal.InstallFile: the record round-trips
// through LoadEpoch, a second save replaces the first, and no temp file is
// left behind.
func TestSaveEpochRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, e := range []Epoch{{Epoch: 1}, {Epoch: 3, SealedSeq: 42}} {
		if err := SaveEpoch(dir, e); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := LoadEpoch(dir); err != nil || !ok || got != e {
			t.Fatalf("LoadEpoch = %+v, %v, %v; want %+v", got, ok, err, e)
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
			t.Fatalf("temp files left: %v", tmps)
		}
	}
}
