package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must leave
// above it: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// Dist is a sample of durations or values, summarized by nearest-rank
// percentiles.
type Dist struct {
	xs     []float64
	sorted bool
}

// Add records one sample.
func (d *Dist) Add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

// AddDur records a duration in the given unit (time.Millisecond for ms).
func (d *Dist) AddDur(dur, unit time.Duration) {
	d.Add(float64(dur) / float64(unit))
}

// Merge appends every sample of o.
func (d *Dist) Merge(o *Dist) {
	d.xs = append(d.xs, o.xs...)
	d.sorted = false
}

// N returns the sample count.
func (d *Dist) N() int { return len(d.xs) }

// Sum returns the sum of the samples.
func (d *Dist) Sum() float64 {
	s := 0.0
	for _, x := range d.xs {
		s += x
	}
	return s
}

// Mean returns the sample mean (0 for an empty sample).
func (d *Dist) Mean() float64 {
	if len(d.xs) == 0 {
		return 0
	}
	return d.Sum() / float64(len(d.xs))
}

// Pct returns the nearest-rank p-quantile (0 < p < 1) and whether at least
// minBeyond samples lie above it.
func (d *Dist) Pct(p float64) (float64, bool) {
	if len(d.xs) == 0 {
		return 0, false
	}
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	r := rank(len(d.xs), p)
	return d.xs[r-1], TailOK(len(d.xs), p)
}

// rank is the 1-based nearest-rank position of quantile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// TailOK reports whether the p-quantile of n samples has at least
// minBeyond samples above it.
func TailOK(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// SamplesFor returns the smallest sample count for which the p-quantile
// has minBeyond samples above it.
func SamplesFor(p float64) int {
	n := 1
	for !TailOK(n, p) {
		n++
	}
	return n
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
