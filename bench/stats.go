package main

import (
	"math"
	"sort"
)

// The statistics below are the benchmark's own rather than those of
// internal/metrics: a later change that claims a gain may not edit the
// benchmark, and ROADMAP plans to fold that package away.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	if lo < 0 {
		return s[0]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// because that is what the acceptance procedure for this benchmark uses to
// judge run-to-run spread. Fewer than two values collapse to the one value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		// Like Python, delta is taken after clamping, so tiny samples
		// extrapolate past the extremes.
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailLadder lists the tail percentiles the benchmark reports, lowest
// first. It stops at p99: beyond that a shared two-core box measures its
// neighbours, not the program.
var tailLadder = []float64{75, 90, 95, 99}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int { return int(float64(n)*(100-p)/100 + 1e-9) }

// highestSupportedPercentile returns the highest rung of tailLadder that
// still has at least ten of n samples beyond it, or 50 when none has.
func highestSupportedPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// geomean is the geometric mean of the positive entries of xs; it weights
// a 10 % change of a fast request type the same as of a slow one.
func geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
