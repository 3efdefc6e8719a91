// Package api is spinnerd's versioned HTTP surface: every endpoint lives
// under /v1/ (there are no unversioned routes), success and error bodies
// are both JSON (errors share one envelope —
// {"error": msg, "code": c} with the status carrying the class and a
// Retry-After header wherever a backoff hint exists), and the change
// feed (/v1/watch) streams the store's delta records as CRC-checked
// binary frames. See the spinnerd command doc for the route reference;
// the typed Go client lives in api/client.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/serve"
)

// Replica carries a node's replication role into the API: Srv is non-nil
// on any durable node (it serves the journal stream), Fl is non-nil in
// follower mode. A nil *Replica is an in-memory node with no replication
// surface.
type Replica struct {
	Srv *replica.Server
	Fl  *replica.Follower
	// MaxStaleness bounds follower lookups: past this lag they answer
	// 503 {"code":"stale_replica"}. Zero serves regardless of lag.
	MaxStaleness time.Duration
}

// Following reports whether the node is still a tailing follower (false
// once promoted — and on leaders, which never had a tail).
func (rs *Replica) Following() bool {
	return rs != nil && rs.Fl != nil && !rs.Fl.Promoted()
}

// Role names the node's current replication role.
func (rs *Replica) Role() string {
	if rs.Following() {
		return "follower"
	}
	return "leader"
}

// Server serves the versioned HTTP API for one store.
type Server struct {
	st  *serve.Store
	rep *Replica

	// Heartbeat is the idle /v1/watch heartbeat period (default 1s).
	Heartbeat time.Duration

	// feed is the slice of the store the watch handler reads; it is the
	// store itself in production and a seam for tests that need to
	// inject compaction races deterministically.
	feed watchFeed
	// fanoutHist records publish-to-delivery latency of delta frames
	// written to watch streams (spinner_watch_fanout_duration_seconds).
	fanoutHist *metrics.Histogram
	// resync is the newest whole-map body encoded (resyncBody);
	// resyncMu serializes its encodes.
	resync   atomic.Pointer[resyncMemo]
	resyncMu sync.Mutex
}

// watchFeed is the change-feed surface handleWatch consumes.
type watchFeed interface {
	DeltaBounds() (floor, next uint64)
	FramedDeltasSince(after uint64, max int) ([]serve.FramedDelta, uint64)
	SubscribeDeltas() *serve.WakeSub
}

// NewServer wires a store (and its optional replication role) into an
// API server. rep may be nil.
func NewServer(st *serve.Store, rep *Replica) *Server {
	return &Server{st: st, rep: rep, Heartbeat: time.Second, feed: st,
		fanoutHist: st.Metrics().NewHistogram(
			"spinner_watch_fanout_duration_seconds",
			"Publish-to-delivery latency of delta frames written to /v1/watch streams (sampled at the last frame of each batch).",
			metrics.UnitSeconds,
		)}
}

// Mux builds the route table: every endpoint lives under /v1/, wrapped
// by the latency middleware (middleware.go); /v1/watch and the
// replication stream record time-to-first-byte.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	route := func(pattern, name string, streaming bool, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(name, streaming, h))
	}
	route("GET /v1/healthz", "healthz", false, s.handleHealthz)
	route("GET /v1/lookup", "lookup", false, s.handleLookup)
	route("POST /v1/mutate", "mutate", false, s.handleMutate)
	route("POST /v1/resize", "resize", false, s.handleResize)
	route("GET /v1/stats", "stats", false, s.handleStats)
	route("GET /v1/replicate", "replicate", true, s.replicated((*replica.Server).ServeStream))
	route("GET /v1/replicate/checkpoint", "replicate_checkpoint", false, s.replicated((*replica.Server).ServeCheckpoint))
	route("POST /v1/promote", "promote", false, s.handlePromote)
	route("GET /v1/watch", "watch", true, s.handleWatch)
	route("GET /v1/metrics", "metrics", false, s.handleMetrics)
	return mux
}

// HealthResponse is the GET /v1/healthz body.
type HealthResponse struct {
	Status string `json:"status"` // "ok" | "degraded"
	Error  string `json:"error,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.st.Degraded() {
		resp := HealthResponse{Status: "degraded"}
		if err := s.st.Err(); err != nil {
			resp.Error = err.Error()
		}
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// LookupResponse is the GET /v1/lookup?v=ID body.
type LookupResponse struct {
	Vertex    int64  `json:"vertex"`
	Partition int32  `json:"partition"`
	Version   uint64 `json:"version"`
	K         int    `json:"k"`
}

// ResyncResponse is the GET /v1/lookup body with no v parameter: the
// full label map plus the delta sequence a /v1/watch consumer should
// resume from after applying it. FromSeq is captured before the labels
// snapshot, so deltas from FromSeq+1 onward re-deliver (never skip) any
// change racing the dump — replaying a delta over a state that already
// includes it is idempotent.
type ResyncResponse struct {
	K        int     `json:"k"`
	Vertices int     `json:"vertices"`
	Labels   []int32 `json:"labels"`
	FromSeq  uint64  `json:"from_seq"`
}

// resyncMemo is one encoded whole-map body: the snapshot at version with
// fromSeq as its watch cursor. Its bytes are never written once stored.
type resyncMemo struct {
	version, fromSeq uint64
	body             []byte
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	v, err := strconv.ParseInt(q.Get("v"), 10, 32)
	if q.Has("v") && err != nil {
		writeError(w, http.StatusBadRequest, "bad vertex id")
		return
	}
	if !s.checkStaleness(w) {
		return
	}
	if !q.Has("v") {
		// Full resync for change-feed consumers that fell past the
		// compaction floor.
		writeBody(w, s.resyncBody())
		return
	}
	// The partition, version and k come from one snapshot, so the
	// partition is below the k it is answered with.
	part, snap, ok := s.st.LookupIn(graph.VertexID(v))
	if !ok {
		writeError(w, http.StatusNotFound, "vertex not found")
		return
	}
	var buf [128]byte
	writeBody(w, AppendLookup(buf[:0], LookupResponse{Vertex: v, Partition: part, Version: snap.Version, K: snap.K}))
}

// resyncBody returns the whole-map body: the published snapshot with the
// watch cursor it pairs with, the newest published delta sequence. The
// cursor is read before the snapshot, so the map can only be newer than
// the cursor claims, never older. The map changes only at a publication,
// so the body is memoized by (version, from_seq): a burst of reads at one
// version encodes the map once, and a miss encodes under resyncMu, so
// concurrent misses do not repeat it.
func (s *Server) resyncBody() []byte {
	_, next := s.st.DeltaBounds()
	fromSeq, snap := next-1, s.st.Snapshot()
	if m := s.resync.Load(); m != nil && m.version == snap.Version && m.fromSeq == fromSeq {
		return m.body
	}
	s.resyncMu.Lock()
	defer s.resyncMu.Unlock()
	if m := s.resync.Load(); m != nil && m.version == snap.Version && m.fromSeq == fromSeq {
		return m.body
	}
	m := &resyncMemo{version: snap.Version, fromSeq: fromSeq,
		body: appendResync(nil, ResyncResponse{K: snap.K, Vertices: snap.Vertices, Labels: snap.Labels, FromSeq: fromSeq})}
	s.resync.Store(m)
	return m.body
}

// checkStaleness enforces the follower staleness bound on the read
// path; it reports whether the request may proceed.
func (s *Server) checkStaleness(w http.ResponseWriter) bool {
	rep := s.rep
	if rep.Following() && rep.MaxStaleness > 0 && rep.Fl.Staleness() > rep.MaxStaleness {
		s.st.Counters().StaleLookups.Add(1)
		writeErrorCode(w, http.StatusServiceUnavailable, "stale_replica",
			fmt.Sprintf("replica %s behind the leader (bound %s)",
				rep.Fl.Staleness().Round(time.Millisecond), rep.MaxStaleness), time.Second)
		return false
	}
	return true
}

// MutateResponse is the POST /v1/mutate body.
type MutateResponse struct {
	Queued   bool `json:"queued"`
	Adds     int  `json:"adds"`
	Removes  int  `json:"removes"`
	Vertices int  `json:"vertices"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	mut, err := ParseMutation(http.MaxBytesReader(w, r.Body, MaxMutateBody))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErrorCode(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("mutation body over %d bytes", MaxMutateBody), 0)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	mut.Tenant = r.Header.Get("X-Tenant")
	if err := s.st.TrySubmit(mut); err != nil {
		s.writeStoreError(w, err)
		return
	}
	// The headers are the ones writeJSON sent, in its order: net/http adds
	// Content-Length itself after Content-Type.
	var buf [128]byte
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_, _ = w.Write(AppendMutate(buf[:0], MutateResponse{Queued: true,
		Adds: len(mut.NewEdges), Removes: len(mut.RemovedEdges), Vertices: mut.NewVertices}))
}

// writeStoreError maps a refused write (TrySubmit or Resize) onto the
// status, stable code and Retry-After hint the API documents for it.
func (s *Server) writeStoreError(w http.ResponseWriter, err error) {
	var qe *serve.QuotaError
	switch {
	case errors.As(err, &qe):
		writeErrorCode(w, http.StatusTooManyRequests, "quota_exceeded", err.Error(), qe.RetryAfter)
	case errors.Is(err, serve.ErrLogFull):
		writeErrorCode(w, http.StatusTooManyRequests, "log_full", err.Error(), s.st.RetryAfter())
	case errors.Is(err, serve.ErrKUnchanged):
		// The unchanged-k check lives inside Resize so concurrent
		// duplicate resizes race atomically, not via a stale snapshot.
		writeErrorCode(w, http.StatusBadRequest, "k_unchanged", "k unchanged", 0)
	case errors.Is(err, serve.ErrDegraded):
		writeErrorCode(w, http.StatusServiceUnavailable, "degraded", err.Error(), 0)
	case errors.Is(err, serve.ErrReadOnly):
		writeErrorCode(w, http.StatusServiceUnavailable, "read_only", err.Error(), 0)
	default:
		writeErrorCode(w, http.StatusServiceUnavailable, "unavailable", err.Error(), 0)
	}
}

// ResizeResponse is the POST /v1/resize body.
type ResizeResponse struct {
	Queued bool `json:"queued"`
	K      int  `json:"k"`
}

func (s *Server) handleResize(w http.ResponseWriter, r *http.Request) {
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil || k < 1 {
		writeError(w, http.StatusBadRequest, "bad k")
		return
	}
	// Resizes are the most expensive write (global relabel + repair
	// runs); under overload they are shed outright so the degradation
	// budget is spent on keeping lookups and mutations flowing.
	if s.st.Overloaded() {
		s.st.Counters().ShedRequests.Add(1)
		writeErrorCode(w, http.StatusServiceUnavailable, "overloaded", "serve: overloaded; resize shed", s.st.RetryAfter())
		return
	}
	if err := s.st.Resize(k); err != nil {
		s.writeStoreError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, ResizeResponse{Queued: true, K: k})
}

// StatsResponse is the GET /v1/stats body — one struct so the field
// names are a stable, documented contract rather than ad-hoc map keys.
// Counters holds every metrics.ServeCounters field under its Go field
// name; the key set is contract, the key order is not.
type StatsResponse struct {
	Vertices       int     `json:"vertices"`
	K              int     `json:"k"`
	Version        uint64  `json:"version"`
	Epoch          uint64  `json:"epoch"`
	Applied        uint64  `json:"applied"`
	Cut            float64 `json:"cut"`
	CutWeight      int64   `json:"cut_weight"`
	TotalWeight    int64   `json:"total_weight"`
	CutByPartition []int64 `json:"cut_by_partition"`
	Durable        bool    `json:"durable"`
	// JournalGroupDepth is the mean journal records framed per group
	// append — the entries amortizing each fsync under -fsync always.
	JournalGroupDepth float64                      `json:"journal_group_depth"`
	Counters          map[string]int64             `json:"counters"`
	Degraded          bool                         `json:"degraded"`
	Overloaded        bool                         `json:"overloaded"`
	DrainRate         float64                      `json:"drain_rate"`
	LookupRate        float64                      `json:"lookup_rate"`
	Tenants           map[string]serve.TenantStats `json:"tenants"`
	// DeltaFloor/DeltaNext bound the change feed: deltas with sequence
	// in [DeltaFloor, DeltaNext) are currently retrievable via
	// /v1/watch; older ones have been compacted away.
	DeltaFloor uint64 `json:"delta_floor"`
	DeltaNext  uint64 `json:"delta_next"`
	// Latency summarizes every non-empty histogram in the metric
	// registry (p50/p90/p99/max in seconds for duration series, raw
	// units otherwise); keys are compacted series names like "lookup",
	// "stage:apply" or "http_request:lookup:2xx". The full-resolution
	// data is the /v1/metrics exposition.
	Latency    map[string]LatencySummary `json:"latency,omitempty"`
	Role       string                    `json:"role"`
	AppliedSeq uint64                    `json:"applied_seq"`
	LeaderSeq  uint64                    `json:"leader_seq"`
	// Follower-only fields.
	StalenessMS      *int64  `json:"staleness_ms,omitempty"`
	ReplicationError string  `json:"replication_error,omitempty"`
	ReplicaEpoch     *uint64 `json:"replica_epoch,omitempty"`
	LastError        string  `json:"last_error,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sum := s.st.Summary()
	floor, next := s.st.DeltaBounds()
	resp := StatsResponse{
		Vertices:          sum.Vertices,
		K:                 sum.K,
		Version:           sum.Version,
		Epoch:             sum.Epoch,
		Applied:           sum.AppliedBatches,
		Cut:               sum.CutRatio,
		CutWeight:         sum.CutWeight,
		TotalWeight:       sum.TotalWeight,
		CutByPartition:    sum.CutByPartition,
		Durable:           s.st.Durable(),
		JournalGroupDepth: s.st.Counters().GroupCommitDepth(),
		Counters:          s.st.Metrics().Counters(),
		Degraded:          s.st.Degraded(),
		Overloaded:        s.st.Overloaded(),
		DrainRate:         s.st.DrainRate(),
		LookupRate:        s.st.LookupRate(),
		Tenants:           s.st.Tenants(),
		DeltaFloor:        floor,
		DeltaNext:         next,
		Latency:           latencySection(s.st.Metrics()),
		Role:              s.rep.Role(),
		AppliedSeq:        s.st.JournalSeq(),
		LeaderSeq:         s.st.JournalSeq(),
	}
	if s.rep.Following() {
		resp.AppliedSeq = s.rep.Fl.AppliedSeq()
		resp.LeaderSeq = s.rep.Fl.LeaderSeq()
		ms := s.rep.Fl.Staleness().Milliseconds()
		resp.StalenessMS = &ms
		if err := s.rep.Fl.Err(); err != nil {
			resp.ReplicationError = err.Error()
		}
	}
	if s.rep != nil && s.rep.Fl != nil {
		ep := s.rep.Fl.Epoch()
		resp.ReplicaEpoch = &ep
	}
	if err := s.st.Err(); err != nil {
		resp.LastError = err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

// replicated mounts one of the leader-side replication handlers behind
// the gate both share: only a durable non-following node serves the
// journal stream.
func (s *Server) replicated(h func(*replica.Server, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch {
		case s.rep == nil || s.rep.Srv == nil:
			writeErrorCode(w, http.StatusServiceUnavailable, "not_durable", "replication requires -data-dir", 0)
		case s.rep.Following():
			// A tailing follower does not serve the stream: chaining
			// replicas from a replica would hide leader truncation and
			// staleness behind a second hop. Promote first.
			writeErrorCode(w, http.StatusServiceUnavailable, "follower", "node is a follower; promote it to serve replication", 0)
		default:
			h(s.rep.Srv, w, r)
		}
	}
}

// PromoteResponse is the POST /v1/promote body.
type PromoteResponse struct {
	Promoted  bool   `json:"promoted"`
	Epoch     uint64 `json:"epoch"`
	SealedSeq uint64 `json:"sealed_seq"`
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.rep == nil || s.rep.Fl == nil {
		writeErrorCode(w, http.StatusConflict, "not_follower", "node is not running with -follow", 0)
		return
	}
	ep, err := s.rep.Fl.Promote()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, PromoteResponse{Promoted: true, Epoch: ep.Epoch, SealedSeq: ep.SealedSeq})
}

// ErrorBody is the JSON error envelope every endpoint shares.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeBody sends a 200 whose JSON body is already encoded (the
// /v1/lookup answers, lookupcodec.go), with an explicit Content-Length
// so that no answer is chunked, whatever its size.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// writeError emits the JSON error shape every endpoint shares:
// {"error": msg} with the status carrying the class.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorBody{Error: msg})
}

// writeErrorCode is writeError plus a stable machine-readable "code"
// field and, when retryAfter > 0, a Retry-After header carrying an
// honest backoff hint (whole seconds, minimum 1) computed from the
// store's observed drain rate.
func writeErrorCode(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int(retryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, status, ErrorBody{Error: msg, Code: code})
}
