package serve

// BenchmarkWatchFanout measures the change-feed fan-out at the hub
// level: one publisher churning label-run deltas into the ring while N
// subscribers drain it concurrently, the shape of a spinnerd carrying N
// /v1/watch streams. Two modes bracket the design space:
//
//   - mode=shared: subscribers append the memoized FramedDelta.Frame
//     bytes (the encode-once path /v1/watch uses). The headline metric
//     is encodes/op staying at 1.0 as subscribers grow 256 → 10240.
//   - mode=encode-per-sub: subscribers re-encode and re-frame every
//     delta themselves (the pre-memoization per-stream cost), so
//     encodes/op and ns/op grow linearly with the subscriber count.
//
// Each op is one publication, timed end to end: publish, wake, and
// every subscriber draining through the final sequence. encodes/op and
// the p99 publish→delivery latency are reported as extra metrics
// (BENCH_pr10.json holds the recorded curve).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

func benchWatchFanout(b *testing.B, subs int, encodePerSub bool) {
	const (
		ringMax = 4096
		batch   = 64 // mirrors the /v1/watch handler's per-wakeup batch
	)
	h := newDeltaHub(ringMax)
	hist := &metrics.Histogram{}
	var subEncodes atomic.Int64

	// Publications are dense from 1, so b.N publishes end at seq b.N.
	lastSeq := uint64(b.N)
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		sub := h.subs.subscribe()
		wg.Add(1)
		go func(sub *WakeSub) {
			defer wg.Done()
			defer sub.Cancel()
			var cursor uint64
			buf := make([]byte, 0, 8192)
			for cursor < lastSeq {
				fds, _ := h.framedSince(cursor, batch)
				if len(fds) == 0 {
					// Caught up to the ring (or past a compacted gap —
					// either way nothing to read): park for the coalesced
					// wakeup. The ring snapshot is stored before the
					// token is sent, so read-then-park never misses.
					<-sub.C()
					continue
				}
				buf = buf[:0]
				for i := range fds {
					if encodePerSub {
						// The old per-stream cost: every subscriber
						// re-encodes and re-CRCs every delta.
						payload := EncodeDelta(fds[i].Delta)
						subEncodes.Add(1)
						buf = AppendWatchFrame(buf, WatchFrame{Kind: WatchDelta, Delta: payload})
					} else {
						buf = append(buf, fds[i].Frame...)
					}
				}
				hist.Record(fds[len(fds)-1].Elapsed())
				// A slow subscriber that the ring compacted past resumes
				// from the floor: fds starts there, so the cursor jump is
				// implicit.
				cursor = fds[len(fds)-1].Delta.Seq
			}
		}(sub)
	}

	// 64 changed labels per publication — low-churn relabel deltas, the
	// steady-state frame mix on a live store.
	labels := make([]int32, 64)
	for i := range labels {
		labels[i] = int32(i % 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		h.publish(&Delta{
			Epoch: 1, K: 4, N: 8192,
			Runs:  []LabelRun{{Start: (n * 64) % 8192, Labels: labels}},
			Cross: int64(n), Total: 8192,
		})
	}
	wg.Wait() // every subscriber drained through lastSeq
	b.StopTimer()

	encodes := h.encodes.Load() + subEncodes.Load()
	b.ReportMetric(float64(encodes)/float64(b.N), "encodes/op")
	b.ReportMetric(float64(hist.Snapshot().Quantile(0.99)), "p99-delivery-ns/op")
}

func BenchmarkWatchFanout(b *testing.B) {
	for _, subs := range []int{256, 2048, 10240} {
		b.Run(fmt.Sprintf("mode=shared/subs=%d", subs), func(b *testing.B) {
			benchWatchFanout(b, subs, false)
		})
	}
	// The linear baseline: per-subscriber encode cost. 10240 is omitted —
	// the point (encodes/op == subs, ns/op scaling with it) is already
	// unmistakable at 2048.
	for _, subs := range []int{256, 2048} {
		b.Run(fmt.Sprintf("mode=encode-per-sub/subs=%d", subs), func(b *testing.B) {
			benchWatchFanout(b, subs, true)
		})
	}
}
