package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 <= p <= 100) of sorted by
// linear interpolation between closest ranks. sorted must be ascending
// and non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*frac
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (0 when empty) without reordering it.
func median(xs []float64) float64 { return quantile(xs, 50) }

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timed is one measurement taken at an offset into its phase.
type timed struct {
	at time.Duration
	v  float64
}

// windows cuts a phase of the given length into consecutive windows of
// the given width and returns the values of each full window, in time
// order; what falls into the partial window at the end is dropped.
func windows(samples []timed, width, phase time.Duration) [][]float64 {
	out := make([][]float64, int(phase/width))
	for _, s := range samples {
		if w := int(s.at / width); s.at >= 0 && w < len(out) {
			out[w] = append(out[w], s.v)
		}
	}
	return out
}

// windowMedians returns the median of each non-empty window.
func windowMedians(samples []timed, width, phase time.Duration) []float64 {
	var out []float64
	for _, w := range windows(samples, width, phase) {
		if len(w) > 0 {
			out = append(out, median(w))
		}
	}
	return out
}

// windowRates returns how many samples per second each window holds.
func windowRates(samples []timed, width, phase time.Duration) []float64 {
	var out []float64
	for _, w := range windows(samples, width, phase) {
		out = append(out, float64(len(w))/width.Seconds())
	}
	return out
}

// quantile returns the p-th percentile of xs (0 when empty) without
// reordering it.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(sortedCopy(xs), p)
}

// values strips the time stamps off samples.
func values(samples []timed) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.v
	}
	return out
}
