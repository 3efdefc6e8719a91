package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketLayout checks the log-linear indexing invariants:
// every value lands in a bucket whose [lo, hi) range contains it, bucket
// bounds tile without gaps, and the relative width past the exact range
// is bounded by 1/subCount.
func TestHistogramBucketLayout(t *testing.T) {
	for i := 0; i < numBuckets; i++ {
		lo, hi := bucketLo(i), bucketHi(i)
		if hi <= lo {
			t.Fatalf("bucket %d: hi %d <= lo %d", i, hi, lo)
		}
		if i > 0 && bucketHi(i-1) != lo {
			t.Fatalf("bucket %d: gap — prev hi %d, lo %d", i, bucketHi(i-1), lo)
		}
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(lo=%d) = %d, want %d", lo, got, i)
		}
		if got := bucketOf(hi - 1); got != i {
			t.Fatalf("bucketOf(hi-1=%d) = %d, want %d", hi-1, got, i)
		}
		if lo >= subCount && float64(hi-lo) > float64(lo)/subCount+1 {
			t.Fatalf("bucket %d: width %d too wide for lo %d", i, hi-lo, lo)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		v := uint64(rng.Int63()) >> uint(rng.Intn(60))
		b := bucketOf(v)
		if lo, hi := bucketLo(b), bucketHi(b); v < lo || v >= hi {
			t.Fatalf("value %d in bucket %d [%d,%d)", v, b, lo, hi)
		}
	}
}

// TestHistogramQuantileAccuracy replays random value sets against an exact
// sorted reference and bounds the histogram's quantile error: the reported
// value must be >= the true quantile and within the documented 1/subCount
// relative bound (+1 for the unit-bucket rounding).
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		var h Histogram
		n := 1000 + rng.Intn(5000)
		vals := make([]int64, n)
		for i := range vals {
			// Mix scales: exponential-ish spread over ns..seconds.
			v := int64(rng.Intn(1 << uint(4+rng.Intn(28))))
			vals[i] = v
			h.RecordValue(v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		snap := h.Snapshot()
		if snap.Count != int64(n) {
			t.Fatalf("count %d, want %d", snap.Count, n)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
			idx := int(q*float64(n)) + 1
			if idx > n {
				idx = n
			}
			exact := vals[idx-1]
			got := snap.Quantile(q)
			if got < exact {
				t.Fatalf("q=%v: histogram %d below exact %d", q, got, exact)
			}
			bound := exact + exact/subCount + 1
			if got > bound {
				t.Fatalf("q=%v: histogram %d exceeds bound %d (exact %d)", q, got, bound, exact)
			}
		}
		if snap.Quantile(1.0) != vals[n-1] {
			t.Fatalf("max quantile %d, want exact max %d", snap.Quantile(1.0), vals[n-1])
		}
	}
}

// TestHistogramConcurrentRecord hammers Record from many goroutines (run
// under make test-race) and checks nothing is lost.
func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 20000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.RecordValue(int64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	snap := h.Snapshot()
	if want := int64(goroutines * per); snap.Count != want {
		t.Fatalf("count %d, want %d", snap.Count, want)
	}
	if want := int64(goroutines*per - 1); snap.Max != want {
		t.Fatalf("max %d, want %d", snap.Max, want)
	}
}

// TestHistogramRecordAllocs enforces the zero-allocation budget on the
// record path.
func TestHistogramRecordAllocs(t *testing.T) {
	var h Histogram
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Record(137 * time.Microsecond)
	}); allocs > 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile %d, want 0", got)
	}
	h.Record(-time.Second) // clamps to 0
	snap := h.Snapshot()
	if snap.Count != 1 || snap.Counts[0] != 1 || snap.Sum != 0 {
		t.Fatalf("negative record: count=%d bucket0=%d sum=%d", snap.Count, snap.Counts[0], snap.Sum)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.RecordValue(v)
			v = (v * 2862933555777941757) & ((1 << 30) - 1)
		}
	})
}
