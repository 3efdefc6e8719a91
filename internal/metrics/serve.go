package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
)

// ServeCounters instruments the live partition-maintenance service
// (internal/serve) with lock-free counters: lookup traffic and staleness on
// the read path, mutation/batch volume on the write path, and
// restabilization/elastic migration volume on the maintenance path. All
// fields are safe for concurrent use; a reader of several sees individually
// atomic values whose skew is bounded by in-flight operations (the usual
// monitoring contract).
//
// The field is a counter's one declaration: writers use it directly and
// its tags carry its wire identity, `metric` the exported family name (the
// stable spinner_* contract; one ending in _total is a counter, any other
// a gauge) and `help` its # HELP text. Registry.RegisterCounters registers
// every field as a series; /v1/metrics and the /v1/stats "counters"
// object (keyed by Go field name) render from the registry.
type ServeCounters struct {
	// Read path.

	// Lookups counts vertex→partition lookups served.
	Lookups atomic.Int64 `metric:"spinner_lookups_total" help:"Vertex-to-partition lookups served."`
	// LookupMisses counts lookups for vertices outside the snapshot (not
	// yet visible or never created).
	LookupMisses atomic.Int64 `metric:"spinner_lookup_misses_total" help:"Lookups for vertices outside the snapshot."`
	// StalenessSum accumulates, per lookup, the number of submitted
	// mutation batches not yet reflected in the snapshot served (the
	// mutation-log backlog observed by that lookup). StalenessSum/Lookups
	// is the mean lookup staleness in batches.
	StalenessSum atomic.Int64 `metric:"spinner_lookup_staleness_batches_total" help:"Per-lookup sum of the mutation-batch backlog observed (mean staleness = this / spinner_lookups_total)."`

	// Write path.

	// BatchesApplied counts mutation batches applied to the authoritative
	// graph; BatchesRejected counts batches refused by validation (the
	// graph is untouched by a rejected batch).
	BatchesApplied  atomic.Int64 `metric:"spinner_batches_applied_total" help:"Mutation batches applied to the authoritative graph."`
	BatchesRejected atomic.Int64 `metric:"spinner_batches_rejected_total" help:"Mutation batches refused by validation or a failed journal append."`
	// EdgesAdded, EdgesRemoved and VerticesAdded total the applied volume.
	EdgesAdded    atomic.Int64 `metric:"spinner_edges_added_total" help:"Edges added by applied batches."`
	EdgesRemoved  atomic.Int64 `metric:"spinner_edges_removed_total" help:"Edges removed by applied batches."`
	VerticesAdded atomic.Int64 `metric:"spinner_vertices_added_total" help:"Vertices appended by applied batches."`

	// Maintenance path.

	// SnapshotSwaps counts atomic snapshot publications of any kind.
	SnapshotSwaps atomic.Int64 `metric:"spinner_snapshot_swaps_total" help:"Atomic snapshot publications of any kind."`
	// Restabilizations counts completed background incremental runs whose
	// result was merged; RestabDiscarded counts runs thrown away because
	// the partition count changed while they were in flight.
	Restabilizations atomic.Int64 `metric:"spinner_restabilizations_total" help:"Completed background restabilization runs merged."`
	RestabDiscarded  atomic.Int64 `metric:"spinner_restabs_discarded_total" help:"Background runs discarded because the partition count changed mid-flight."`
	// MigratedVertices and MigratedWeight total the vertices that changed
	// partition when restabilization results merged, and the weighted
	// degree they dragged across partitions — the migration-volume figure
	// the paper reports savings in (Fig. 7b).
	MigratedVertices atomic.Int64 `metric:"spinner_migrated_vertices_total" help:"Vertices that changed partition when restabilization results merged."`
	MigratedWeight   atomic.Int64 `metric:"spinner_migrated_weight_total" help:"Weighted degree dragged across partitions by merges."`
	// ElasticResizes counts k→k′ changes; ElasticSeedMoved totals the
	// vertices moved by the probabilistic relabeling itself (the paper's
	// n/(k+n) fraction, Eq. 11) before LPA repair.
	ElasticResizes   atomic.Int64 `metric:"spinner_elastic_resizes_total" help:"Elastic partition-count changes applied."`
	ElasticSeedMoved atomic.Int64 `metric:"spinner_elastic_seed_moved_total" help:"Vertices moved by the probabilistic elastic relabeling itself."`

	// Cut-counter path.

	// CutReconciles counts the exact checks, run at open and by tests; the
	// serving loop moves the counters instead (a relabel too large to move
	// recounts them without checking, uncounted). CutDrift counts exact
	// checks that found the incremental counters disagreeing with a recount
	// and repaired them (expected to stay 0 — integer deltas are exact).
	CutReconciles atomic.Int64 `metric:"spinner_cut_reconciles_total" help:"Periodic exact cut recomputations."`
	CutDrift      atomic.Int64 `metric:"spinner_cut_drift_total" help:"Exact checks that found the incremental cut counters disagreeing with a recount."`

	// Durability path (internal/wal; zero on in-memory stores).

	// JournalAppends counts records durably framed into the write-ahead
	// journal; JournalBytes totals their encoded size; JournalSyncs counts
	// fsyncs issued under the configured policy.
	JournalAppends atomic.Int64 `metric:"spinner_journal_appends_total" help:"Records durably framed into the write-ahead journal."`
	JournalBytes   atomic.Int64 `metric:"spinner_journal_bytes_total" help:"Encoded bytes appended to the journal."`
	JournalSyncs   atomic.Int64 `metric:"spinner_journal_syncs_total" help:"Journal fsyncs issued under the configured policy."`
	// Checkpoints counts snapshot checkpoints atomically installed;
	// CheckpointBytes totals their payload size.
	Checkpoints     atomic.Int64 `metric:"spinner_checkpoints_total" help:"Checkpoints atomically installed."`
	CheckpointBytes atomic.Int64 `metric:"spinner_checkpoint_bytes_total" help:"Checkpoint payload bytes written."`
	// ReplayedRecords counts journal records re-applied during crash
	// recovery (serve.Open) — the recovery replay length.
	ReplayedRecords atomic.Int64 `metric:"spinner_replayed_records_total" help:"Journal records re-applied during crash recovery."`

	// Commit-pipeline path (the staged write plane of ISSUE 5).

	// GroupCommits counts journal group appends (one write + at most one
	// fsync each); GroupedEntries totals the records framed into them.
	// GroupedEntries/GroupCommits is the mean group-commit depth — the
	// number of entries amortizing each fsync under wal.SyncAlways.
	GroupCommits   atomic.Int64 `metric:"spinner_group_commits_total" help:"Journal group appends (one write, at most one fsync each)."`
	GroupedEntries atomic.Int64 `metric:"spinner_grouped_entries_total" help:"Records framed into group appends."`
	// ApplyCoalesces counts the publications a run of two or more
	// consecutive add-only batches shared (one snapshot, one counter-only
	// delta); CoalescedBatches totals the batches in those runs.
	ApplyCoalesces   atomic.Int64 `metric:"spinner_apply_coalesces_total" help:"Applies that merged two or more consecutive add-only batches."`
	CoalescedBatches atomic.Int64 `metric:"spinner_coalesced_batches_total" help:"Batches merged by coalesced applies."`
	// CheckpointsPending is a 0/1 gauge: 1 while a captured checkpoint is
	// being encoded/written/installed by the background checkpointer.
	CheckpointsPending atomic.Int64 `metric:"spinner_checkpoints_pending" help:"1 while a background checkpoint is being encoded/written/installed."`

	// Overload-robustness path (admission control + degradation budget).

	// QuotaRejections counts submissions refused by per-tenant token-bucket
	// admission control (never enqueued, never journaled).
	QuotaRejections atomic.Int64 `metric:"spinner_quota_rejections_total" help:"Submissions refused by per-tenant token-bucket admission control."`
	// ShedRequests counts HTTP requests shed under overload with 503 +
	// Retry-After (currently /resize, the most expensive write).
	ShedRequests atomic.Int64 `metric:"spinner_shed_requests_total" help:"HTTP requests shed under overload with 503 + Retry-After."`
	// DeferredRestabs counts restabilizations the degradation budget
	// pushed back because the store was overloaded — one per deferral
	// episode, not per skipped turn.
	DeferredRestabs atomic.Int64 `metric:"spinner_deferred_restabs_total" help:"Restabilization passes deferred by the degradation budget."`
	// FairnessPasses counts deficit-round-robin passes over the tenant
	// ring when the coordinator forms a commit group from the backlog.
	FairnessPasses atomic.Int64 `metric:"spinner_fairness_passes_total" help:"Deficit-round-robin passes over the tenant ring."`

	// Change-feed path (the delta plane; see internal/serve/delta.go).

	// DeltasPublished counts Delta records published into the change-feed
	// ring (baselines, label-changing deltas and counter-only deltas).
	DeltasPublished atomic.Int64 `metric:"spinner_deltas_published_total" help:"Delta records published into the change-feed ring."`
	// DeltaEncodes counts EncodeDelta calls on the publish path. The
	// encode-once fan-out invariant is DeltaEncodes == DeltasPublished
	// no matter how many watch streams are attached: frames are memoized
	// at publish time and shared by every stream.
	DeltaEncodes atomic.Int64 `metric:"spinner_delta_encodes_total" help:"EncodeDelta calls on the publish path (equals spinner_deltas_published_total under encode-once fan-out, independent of watch-stream count)."`
	// WatchStreams is a gauge of currently open /v1/watch streams:
	// incremented when a stream is accepted, decremented when it closes.
	WatchStreams atomic.Int64 `metric:"spinner_watch_streams" help:"Currently open /v1/watch streams."`
	// WatchStreamsTotal counts /v1/watch streams ever accepted.
	WatchStreamsTotal atomic.Int64 `metric:"spinner_watch_streams_total" help:"/v1/watch streams ever accepted."`
	// WatchBytesSent totals the frame bytes written to /v1/watch streams
	// (handshakes, deltas, heartbeats and end frames).
	WatchBytesSent atomic.Int64 `metric:"spinner_watch_bytes_sent_total" help:"Frame bytes written to /v1/watch streams."`

	// Replication path (internal/replica; zero unless replicating).

	// ReplicaFramesSent and ReplicaBytesSent total the stream frames a
	// leader pushed to followers (handshakes, records and heartbeats) and
	// their encoded size.
	ReplicaFramesSent atomic.Int64 `metric:"spinner_replica_frames_sent_total" help:"Replication stream frames pushed to followers."`
	ReplicaBytesSent  atomic.Int64 `metric:"spinner_replica_bytes_sent_total" help:"Encoded bytes pushed over replication streams."`
	// ReplicaRecordsApplied counts leader journal records a follower
	// applied through the replicated apply path.
	ReplicaRecordsApplied atomic.Int64 `metric:"spinner_replica_records_applied_total" help:"Leader journal records applied through the replicated apply path."`
	// ReplicaFencedFrames counts stream frames rejected by the epoch
	// check — traffic from a deposed leader after promotion.
	ReplicaFencedFrames atomic.Int64 `metric:"spinner_replica_fenced_frames_total" help:"Replication frames rejected by the epoch check."`
	// ReplicaReconnects counts follower stream re-establishments after a
	// dropped or torn connection (the initial connect is not counted).
	ReplicaReconnects atomic.Int64 `metric:"spinner_replica_reconnects_total" help:"Follower stream re-establishments after a dropped connection."`
	// StaleLookups counts follower /lookup requests refused with 503
	// stale_replica because staleness exceeded the -max-staleness bound.
	StaleLookups atomic.Int64 `metric:"spinner_stale_lookups_total" help:"Follower lookups refused with 503 stale_replica."`
}

// series describes every field, in declaration order, as the integer
// series its tags name. A field that is not a tagged atomic.Int64 panics:
// a counter cannot be added without its wire name.
func (c *ServeCounters) series() []*Series {
	fields := reflect.ValueOf(c).Elem()
	out := make([]*Series, fields.NumField())
	for i := range out {
		f := fields.Type().Field(i)
		v, ok := fields.Field(i).Addr().Interface().(*atomic.Int64)
		s := &Series{Name: f.Tag.Get("metric"), Help: f.Tag.Get("help"), Kind: KindGauge, Int: v, Field: f.Name}
		if !ok || s.Name == "" {
			panic(fmt.Sprintf("metrics: ServeCounters.%s must be an atomic.Int64 with a `metric` tag", f.Name))
		}
		if strings.HasSuffix(s.Name, "_total") {
			s.Kind = KindCounter
		}
		out[i] = s
	}
	return out
}

// GroupCommitDepth returns the mean number of journal records framed per
// group append — the entries amortizing each fsync under wal.SyncAlways
// (0 with no group commits).
func (c *ServeCounters) GroupCommitDepth() float64 {
	groups := c.GroupCommits.Load()
	if groups == 0 {
		return 0
	}
	return float64(c.GroupedEntries.Load()) / float64(groups)
}

// String lists the non-zero counters as Field=value pairs on one line, in
// declaration order.
func (c *ServeCounters) String() string {
	var pairs []string
	for _, s := range c.series() {
		if n := s.Int.Load(); n != 0 {
			pairs = append(pairs, fmt.Sprintf("%s=%d", s.Field, n))
		}
	}
	return strings.Join(pairs, " ")
}
