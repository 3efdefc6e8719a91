package replica

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/wal"
)

// BenchmarkFollowerLookupStaleness measures follower-side Lookup latency
// while the leader churns and the stream replicates underneath — the
// read-replica serving path. ns/op should sit at the leader's ~50ns
// Lookup cost (the same lock-free snapshot read); the staleness-ms metric
// reports the worst replication lag observed during the run.
func BenchmarkFollowerLookupStaleness(b *testing.B) {
	const n = 4000
	opts := core.DefaultOptions(4)
	opts.Seed = 7
	opts.NumWorkers = 2
	opts.MaxIterations = 30
	cfg := serve.Config{
		Options: opts,
		Durability: serve.DurabilityConfig{
			Fsync:             wal.SyncNever,
			CheckpointEvery:   -1,
			NoFinalCheckpoint: true,
		},
	}
	ldir := b.TempDir()
	leader, err := serve.BootstrapDurable(ldir, gen.WattsStrogatz(n, 8, 0.2, 7), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer leader.Close()
	hs, _ := leaderHTTP(b, leader, ldir)

	fl, err := StartFollower(FollowerConfig{
		Leader: hs.URL, Dir: b.TempDir(), Store: cfg, Reconnect: 10 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer fl.Close()

	// Leader churn for the duration of the run; sample the follower's
	// observed staleness as it tails.
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	var maxStale atomic.Int64
	go func() {
		defer close(churnDone)
		src := rng.New(99)
		for {
			select {
			case <-stop:
				return
			default:
			}
			mut := &graph.Mutation{}
			for i := 0; i < 50; i++ {
				u := graph.VertexID(src.Intn(n))
				v := graph.VertexID(src.Intn(n))
				if u != v {
					mut.NewEdges = append(mut.NewEdges, graph.WeightedEdgeRecord{U: u, V: v, Weight: 1})
				}
			}
			if err := leader.Submit(mut); err != nil {
				return
			}
			if s := int64(fl.Staleness()); s > maxStale.Load() {
				maxStale.Store(s)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	st := fl.Store()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		src := rng.New(4242)
		for pb.Next() {
			if _, ok := st.Lookup(graph.VertexID(src.Intn(n))); !ok {
				b.Fatal("lookup miss on follower")
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-churnDone
	if err := fl.Err(); err != nil {
		b.Fatalf("follower died during bench: %v", err)
	}
	b.ReportMetric(float64(maxStale.Load())/1e6, "max-staleness-ms")
}

// procReadBytes is this process's rchar from /proc/self/io: bytes it has
// asked read syscalls for, page cache or not.
func procReadBytes(b *testing.B) int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		b.Skipf("no /proc/self/io: %v", err)
	}
	var n int64
	if _, err := fmt.Sscanf(string(data), "rchar: %d", &n); err != nil {
		b.Skipf("parsing /proc/self/io: %v", err)
	}
	return n
}

// BenchmarkReplicationTail is the leader-side cost of streaming one more
// commit to a caught-up follower, 1 MiB into the active segment: append a
// record, read it back through the stream's cursor. read-B/record is what
// the read path asks the kernel for per record streamed — about the
// record's own size, however deep into the segment the journal is (a
// rescanning reader pays the segment offset every time).
func BenchmarkReplicationTail(b *testing.B) {
	dir := b.TempDir()
	j, err := wal.Open(dir, 1, wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	group := []wal.GroupEntry{{Mut: &graph.Mutation{NewEdges: []graph.WeightedEdgeRecord{
		{U: 1, V: 2, Weight: 2}, {U: 3, V: 4, Weight: 1}}}}}
	var seq uint64
	for bytes := 0; bytes < 1<<20; {
		first, n, err := j.AppendGroup(group)
		if err != nil {
			b.Fatal(err)
		}
		seq, bytes = first, bytes+n
	}
	tail, err := wal.OpenTail(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer tail.Close()
	const chunk = 256 << 10 // Server.ChunkBytes
	for {
		frames, _, err := tail.Next(seq, chunk)
		if err != nil {
			b.Fatal(err)
		}
		if len(frames) == 0 {
			break
		}
	}
	// Reading the counter is itself a read; take its own cost out.
	self := procReadBytes(b)
	self = procReadBytes(b) - self
	var read int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if seq, _, err = j.AppendGroup(group); err != nil {
			b.Fatal(err)
		}
		before := procReadBytes(b)
		frames, last, err := tail.Next(seq, chunk)
		read += procReadBytes(b) - before - self
		if err != nil || last != seq || len(frames) == 0 {
			b.Fatalf("Next(%d) = %d bytes, last %d, err %v", seq, len(frames), last, err)
		}
	}
	b.ReportMetric(float64(read)/float64(b.N), "read-B/record")
}
