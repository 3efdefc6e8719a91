// Package repro is a from-scratch Go reproduction of "Spinner: Scalable
// Graph Partitioning in the Cloud" (Martella, Logothetis, Loukas, Siganos;
// ICDE 2017 / arXiv:1404.3861).
//
// The primary contribution — the Spinner k-way balanced label-propagation
// partitioner — lives in internal/core, built on a from-scratch
// Pregel/Giraph BSP engine (internal/pregel). Baseline partitioners,
// dataset analogues, analytical applications and a cluster cost model
// complete the substrate needed to check the paper's evaluation.
// internal/experiments states its claims as one table, each row a table or
// figure of the paper with its tolerance, and go run ./cmd/experiments
// prints the measured values and the verdicts; REPRODUCTION.md is that
// output at the default scale (make reproduction), and TestClaims checks
// every row that reads no wall clock at a small scale.
//
// # Performance architecture
//
// Superstep cost in a Pregel system is dominated by message traffic and
// barrier overhead, so the engine's hot path is built around reusable,
// engine-owned buffers rather than per-superstep allocation:
//
//   - Message planes (worker outboxes, per-vertex inboxes backed by
//     per-worker flat arenas, combiner staging slots) are created once per
//     run and truncated in place between supersteps — steady-state
//     supersteps allocate nothing on the message path.
//   - With a message combiner installed, messages are combined on the send
//     side: each worker stages one merged payload per destination vertex,
//     so both allocation and cross-worker delivery volume shrink before
//     the barrier (see internal/pregel's package comment for when each
//     path is taken).
//   - Active-vertex tracking is incremental — workers count survivors at
//     compute time and messages at delivery time, and a next superstep
//     runs iff either is nonzero — so the engine never rescans the vertex
//     set between supersteps, and delivery never reads a vertex record.
//   - Graphs built via graph.Builder are CSR-backed: adjacency lives in
//     one flat, sorted target array, keeping LPA edge scans cache-friendly
//     and giving binary-search HasEdge.
//
// BENCH_pr1.json holds the recorded BenchmarkSpinnerIteration -benchmem
// trajectory; performance work is now judged end to end by the repo's
// one benchmark (`make bench`, BENCHMARK.json, benchmark/README.md).
//
// # Serving architecture
//
// internal/serve turns the batch algorithms into a live
// partition-maintenance service (the paper's §III-D/E claim that
// partitions are maintained, not recomputed), exposed by cmd/spinnerd and
// walked through in examples/serving:
//
//   - The store has one writer: a coordinator goroutine owns the graph,
//     the labels and the integer cut counters, applies every batch itself
//     and publishes one immutable snapshot after each change.
//   - Lookups are lock-free: a lookup is one atomic load of the published
//     snapshot and a bounds check. A published label array is never
//     written: a relabel or resize swaps in a new one, and growth writes
//     only past the published length, so no publication copies labels.
//   - graph.Mutation batches flow through a bounded mutation log into the
//     coordinator, which applies every batch one way
//     (graph.Mutation.ApplyEdits): atomically, adding to the rows (an
//     existing edge gains weight: graph.Weighted keeps one arc per
//     neighbour), placing appended vertices on the least loaded
//     partitions from the maintained load counters, and advancing the
//     counters by the batch's exact cut edits — never an O(E) scan or
//     recompute per batch. A run of add-only batches publishes once.
//   - The counters are never recounted while serving: an exact check
//     (metrics.CutWeightsRange, bit-identical to the incremental values)
//     runs once when a durable store reopens.
//   - Past a degradation threshold of the tracked cut ratio the
//     coordinator clones the graph and restabilizes in a background
//     goroutine with the incremental Spinner adaptation. When the run
//     lands, the label runs it changed are journaled as a relabel record
//     and then applied at that log position. Only the leader computes a
//     relabeling: followers and journal replay adopt the record.
//   - Elastic k→k′ changes relabel the paper's n/(k+n) fraction
//     immediately — lookups never observe an out-of-range label — and
//     repair locality with the same background machinery; runs in flight
//     across a resize are discarded, not merged.
//
// internal/metrics.ServeCounters instruments lookups, staleness,
// migration volume, the write plane (coalesced applies, reconciles,
// drift) and the durability path (journal appends/bytes/
// fsyncs, checkpoints, recovery replay length);
// cluster.MigrationVolume measures the migration traffic. BENCH_pr2.json records
// BenchmarkServeLookupUnderChurn (sustained lookup latency under live
// churn and restabilization) and BENCH_pr3.json
// BenchmarkServeMutateThroughput (the write plane, incremental-vs-exact
// cut tracking); `make test-race` runs
// every package under the race detector.
//
// # Durability
//
// A maintained partitioning is exactly the state the paper argues is too
// expensive to recompute, so the serving layer can persist it
// (internal/wal + serve.NewDurable/BootstrapDurable/Open, surfaced by
// spinnerd's -data-dir/-fsync/-checkpoint-every flags):
//
// The durable write path is a staged commit pipeline (ISSUE 5): group
// commit, coalesced apply, background checkpoints.
//
//   - Journal + group commit: each coordinator turn drains everything
//     pending in the mutation log and appends the drained
//     mutations/resizes to the segmented, CRC-framed write-ahead log
//     (binary graph.Mutation encoding, monotonic sequence numbers) as
//     ONE wal group — one frame-staging pass, one write syscall, at most
//     one fsync (wal.AppendGroup; the coordinator is the journal's one
//     appender, so the group is what amortizes the fsync). The
//     durability boundary stays pre-apply per entry: the whole group is
//     durable before any entry of it is applied, so no state a lookup
//     has ever observed can be forgotten by a crash.
//   - Fsync policy: never (page cache — survives process death, the
//     common crash), interval (bounded loss window against OS/power
//     death), always (every acknowledged batch survives power loss).
//     BenchmarkServeMutateDurable (recorded in BENCH_pr5.json; PR 4's
//     serial numbers remain in BENCH_pr4.json) prices each policy
//     against the in-memory write plane along a concurrent-submitters
//     axis: the framing itself (fsync=never) costs well under 2x, and
//     with ≥8 submitters group commit amortizes fsync=always toward the
//     interval policy.
//   - Coalesced apply: consecutive add-only batches drained in one turn
//     share one publication — one snapshot and one counter-only delta
//     for the run (sound because add-only batches never relabel).
//   - Background checkpoints: when one is due the coordinator only
//     *captures* the state — graph (Weighted.Clone), the published
//     labels, k, generation/epoch, trigger state — and a
//     background goroutine encodes and atomically installs it
//     (tmp+fsync+rename), prunes old checkpoints, and deletes journal
//     segments below the oldest retained one; at most one is in flight,
//     and the write plane never stops for the encode. Close still
//     checkpoints synchronously after waiting out an in-flight capture.
//   - Recovery: serve.Open loads the latest valid checkpoint (falling
//     back past a damaged newest file — or one that never finished
//     installing because the crash hit mid-checkpoint, in which case the
//     longer journal tail replays to the identical state), rebuilds the
//     store (counting the cut afresh), replays the journal tail through
//     the normal apply path, and runs an
//     exact reconcile (CutDrift stays 0). Torn tails — the crash shape —
//     are truncated; mid-log corruption fails recovery loudly rather
//     than silently dropping acknowledged batches. Recovery is
//     bit-identical to what the store had journaled, quiesced or
//     mid-churn, because every restabilization is a journaled relabel
//     record it adopts: labels, k and integer cut counters
//     match exactly (property-tested, including a crash during an
//     in-flight background checkpoint and a close mid-churn).
//
// # CI
//
// .github/workflows/ci.yml enforces the contract on every push and PR, on
// the Go version pinned in go.mod with module/build caching: `make lint`
// (gofmt -l + go vet), `make check` (build + vet + tier-1 tests + the
// race detector over every package), `make bench-test` (vet + unit tests
// of the benchmark module), `make bench-quick` (every micro-benchmark
// compiled and run once, -benchtime=1x), `make fuzz` (10s on every Fuzz
// target in the module, found by go test -list), `make examples-smoke`
// (go run on every examples/ program), and the daemon smokes,
// starting with `make recovery-smoke` (kill -9 a durable spinnerd
// mid-churn — additionally simulating a crash during an in-flight
// background checkpoint — reopen the data dir, assert health and lookup
// consistency).
package repro
