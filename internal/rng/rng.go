// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every randomized component in this repository.
//
// All randomness in the Spinner reproduction flows through this package so
// that experiments are exactly reproducible from a single seed: the graph
// generators, the initial random labeling, the probabilistic migration step
// (Eq. 14 in the paper), and the elastic re-labeling (Eq. 11) all draw
// from an rng.Source.
//
// The generator is splitmix64 (Steele, Lea, Flood; also used as the seeding
// procedure of xoshiro). It is tiny, allocation free and passes BigCrush.
// A sequential component owns one stream (New). Where many goroutines
// draw, as the partitioner's vertices do, each draw site gets its own
// Source from At, a pure function of the seed and the site's coordinates:
// the counter-based construction of Salmon et al., "Parallel random
// numbers: as easy as 1, 2, 3" (SC 2011). A draw then depends on neither
// the goroutine that makes it nor the draws made before it.
package rng

import "math"

// Source is a splitmix64 pseudo-random number generator.
// The zero value is a valid generator seeded with 0.
// Source is NOT safe for concurrent use.
type Source struct {
	state uint64
}

// golden is splitmix64's increment, the odd integer nearest 2^64/φ.
const golden = 0x9e3779b97f4a7c15

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// At returns the Source of one draw site named by the coordinates a and
// b under seed. Its state is the site's key: splitmix64's output function
// (mix, a bijection) applied to the seed, then to the result xor a, then
// to that xor b. Under one seed, sites that share a and differ in b, or
// share b and differ in a, never share a key; any other two share one
// with probability 2^-64.
func At(seed, a, b uint64) Source {
	return Source{state: mix(mix(mix(seed)^a) ^ b)}
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// mix is splitmix64's output function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform pseudo-random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64() % uint64(n)) // bias is negligible for n << 2^64
}

// Int31n returns a uniform pseudo-random int32 in [0, n). It panics if n <= 0.
func (s *Source) Int31n(n int32) int32 {
	if n <= 0 {
		panic("rng: Int31n called with n <= 0")
	}
	return int32(s.Uint64() % uint64(n))
}

// Float64 returns a uniform pseudo-random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles p in place (Fisher–Yates).
func (s *Source) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^alpha using inverse-CDF over a precomputed table.
// Build one with NewZipf; sampling is O(log n).
type Zipf struct {
	cdf []float64
	src *Source
}

// NewZipf constructs a Zipf sampler over [0, n) with exponent alpha > 0.
func NewZipf(src *Source, n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf called with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, src: src}
}

// Next returns the next Zipf-distributed sample in [0, n).
func (z *Zipf) Next() int {
	u := z.src.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
