package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram's bucket layout is log-linear (HDR-histogram style): values
// below subCount land in exact unit buckets; above that, each power-of-two
// octave is split into subCount equal sub-buckets, so the relative width of
// any bucket — and therefore the relative error of any quantile read — is
// bounded by 1/subCount (6.25%). The layout is fixed at compile time, which
// is what makes the record path a handful of atomic adds with no allocation.
const (
	subBits  = 4
	subCount = 1 << subBits
	// numBuckets covers every non-negative int64: subCount exact unit
	// buckets plus subCount sub-buckets per octave for exponents
	// subBits..62.
	numBuckets = (63-subBits)*subCount + subCount
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // subBits..62
	return ((exp - subBits + 1) << subBits) | int((v>>(exp-subBits))&(subCount-1))
}

// bucketLo returns the inclusive lower bound of bucket i.
func bucketLo(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	q := i >> subBits // octave offset, >= 1
	r := uint64(i & (subCount - 1))
	return (subCount + r) << (q - 1)
}

// bucketHi returns the exclusive upper bound of bucket i.
func bucketHi(i int) uint64 {
	if i < subCount {
		return uint64(i) + 1
	}
	return bucketLo(i) + 1<<((i>>subBits)-1)
}

// Histogram is a lock-free fixed-bucket log₂-scale histogram: atomic bucket
// counters with power-of-two sub-buckets, a tracked sum and exact max.
// Record never allocates and never takes a lock, so it is safe on serving
// hot paths; readers take a Snapshot and extract quantiles from that.
// Values are int64 — durations record their nanosecond count. The zero
// value is ready to use.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Record adds one duration observation (negative durations clamp to 0).
func (h *Histogram) Record(d time.Duration) { h.RecordValue(int64(d)) }

// RecordValue adds one raw observation (negative values clamp to 0).
func (h *Histogram) RecordValue(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(uint64(v))].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot copies the histogram into a plain-value view. Buckets
// are read individually (not under a barrier), so a snapshot racing writers
// is consistent per-bucket with bounded cross-bucket skew — the usual
// monitoring contract, as for ServeCounters.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Counts: make([]int64, numBuckets),
		Sum:    h.sum.Load(),
		Max:    h.max.Load(),
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	// Counts holds one count per fixed bucket (len numBuckets).
	Counts []int64
	// Count, Sum and Max summarize the recorded values; Max is exact.
	Count int64
	Sum   int64
	Max   int64
}

// Quantile returns an upper bound for the q-th quantile (q in [0,1]): the
// exclusive upper bound of the bucket holding the ⌈q·Count⌉-th smallest
// observation, clamped to the exact tracked Max. The bound is at most
// 1/subCount (6.25%) above the true value for values ≥ subCount, exact
// below. Returns 0 on an empty snapshot; q ≥ 1 returns Max exactly.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return s.Max
	}
	if q < 0 {
		q = 0
	}
	target := int64(q*float64(s.Count)) + 1
	if target > s.Count {
		target = s.Count
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			hi := int64(bucketHi(i))
			if hi > s.Max {
				hi = s.Max
			}
			return hi
		}
	}
	return s.Max
}

// CountBelow returns the number of observations strictly below bound —
// the cumulative count backing a Prometheus `le` bucket whose boundary
// falls on a bucket edge.
func (s HistSnapshot) CountBelow(bound uint64) int64 {
	idx := bucketOf(bound)
	if idx > len(s.Counts) {
		idx = len(s.Counts)
	}
	var cum int64
	for _, c := range s.Counts[:idx] {
		cum += c
	}
	return cum
}
