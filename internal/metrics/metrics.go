// Package metrics provides the small statistical toolkit the evaluation
// needs: sample quantiles computed with the Hyndman–Fan method the paper
// cites as the "widely-used four quartile method" [26], summary statistics,
// CDF fractions (Fig. 11), histograms (Fig. 8) and step time series (Fig. 10).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of xs using Hyndman & Fan's
// definition 7 (linear interpolation of order statistics; the default of R
// and the method behind standard quartile reporting). It returns NaN for an
// empty sample and clamps p into [0,1].
//
// NaN policy: NaN observations are stripped before the quantile is
// computed, so one poisoned measurement cannot corrupt every order
// statistic (sort.Float64s gives NaNs an arbitrary-looking position).
// A sample that is entirely NaN behaves like an empty one and returns NaN.
func Quantile(xs []float64, p float64) float64 {
	s := sortedClean(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	return quantileSorted(s, p)
}

// sortedClean returns a sorted copy of xs with NaNs stripped (the shared
// NaN policy of Quantile and FourQuartiles).
func sortedClean(xs []float64) []float64 {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	return s
}

// quantileSorted computes the Hyndman–Fan definition-7 quantile of an
// already sorted, NaN-free, non-empty sample.
func quantileSorted(s []float64, p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	h := (float64(len(s)) - 1) * p
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[hi]-s[lo])
}

// Quartiles holds the four-quartile summary of a sample.
type Quartiles struct {
	Min, Q1, Median, Q3, Max float64
}

// FourQuartiles computes the quartile summary the paper reports cluster
// averages with (Figs. 3 and 15). The sample is copied and sorted exactly
// once; all five order statistics come from that one sorted slice, keeping
// Quantile's contract (Hyndman–Fan definition 7, NaNs stripped) without
// its five-fold copy-and-sort cost.
func FourQuartiles(xs []float64) Quartiles {
	s := sortedClean(xs)
	if len(s) == 0 {
		nan := math.NaN()
		return Quartiles{Min: nan, Q1: nan, Median: nan, Q3: nan, Max: nan}
	}
	return Quartiles{
		Min:    s[0],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
		Max:    s[len(s)-1],
	}
}

// Mid returns Tukey's trimean of the quartile summary,
// (Q1 + 2·Median + Q3) / 4 — a robust location estimate for skewed
// samples that weights the median twice as heavily as the hinges. (An
// earlier revision averaged Q1, median and Q3 equally, which is neither
// the midhinge nor the trimean; the estimator is pinned by test now.)
func (q Quartiles) Mid() float64 { return (q.Q1 + 2*q.Median + q.Q3) / 4 }

// String renders the summary compactly.
func (q Quartiles) String() string {
	return fmt.Sprintf("min=%.3g q1=%.3g med=%.3g q3=%.3g max=%.3g",
		q.Min, q.Q1, q.Median, q.Q3, q.Max)
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of a positive sample, or NaN if the
// sample is empty or contains non-positive values. Speedup aggregation
// across TPC-H queries uses it.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// FractionBelow returns the fraction of the sample that is at most x.
func FractionBelow(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, v := range xs {
		if v <= x {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Histogram counts samples into fixed-width bins covering [lo, hi).
// Out-of-range observations are NOT clamped into the edge bins — clamping
// silently piles mass onto the first/last bin and distorts Fig. 8-style
// shapes — they are tallied in Underflow/Overflow instead. Total counts
// every observation, in range or not.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
	// Underflow counts observations with x < Lo; Overflow counts x ≥ Hi
	// (and NaN). Neither appears in Counts.
	Underflow, Overflow int
}

// NewHistogram creates a histogram with the given bounds and bin count.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic("metrics: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation. Values outside [Lo, Hi) land in
// Underflow/Overflow, not in the edge bins.
func (h *Histogram) Add(x float64) {
	h.Total++
	if x < h.Lo {
		h.Underflow++
		return
	}
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i >= len(h.Counts) || i < 0 { // i < 0: NaN comparisons are all false
		h.Overflow++
		return
	}
	h.Counts[i]++
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Counter accumulates named integer counts and reports them in sorted key
// order, so chaos-soak fault tallies print and hash deterministically.
type Counter struct {
	counts map[string]int64
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return &Counter{counts: make(map[string]int64)} }

// Add increments a named count by n.
func (c *Counter) Add(key string, n int64) { c.counts[key] += n }

// Get returns one named count (0 if never added).
func (c *Counter) Get(key string) int64 { return c.counts[key] }

// Total sums all counts.
func (c *Counter) Total() int64 {
	var t int64
	for _, v := range c.counts {
		t += v
	}
	return t
}

// Keys returns the counter's keys in sorted order.
func (c *Counter) Keys() []string {
	keys := make([]string, 0, len(c.counts))
	for k := range c.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders "k1=v1 k2=v2 ..." in key order.
func (c *Counter) String() string {
	var b []byte
	for i, k := range c.Keys() {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("%s=%d", k, c.counts[k])...)
	}
	return string(b)
}

// SeriesPoint is one sample of a step time series.
type SeriesPoint struct {
	T float64
	V float64
}

// Series accumulates a piecewise-constant time series by deltas, e.g. the
// number of running executors over time (Fig. 10). Deltas are kept in
// arrival order in fixed-size chunks, so the series grows by one chunk at a
// time and never copies what it holds; a delta at the timestamp of the one
// before it folds into it, so a simulation (whose clock is monotone) stores
// one delta per distinct instant and Points never has to sort.
type Series struct {
	chunks   []*[seriesChunk]SeriesPoint // V is the summed delta recorded at T
	n        int                         // deltas held, across the chunks
	unsorted bool                        // some delta arrived with T below its predecessor's
}

// seriesChunk is how many deltas one chunk holds (16 KiB of them).
const seriesChunk = 1024

// NewSeries returns an empty series.
func NewSeries() *Series { return &Series{} }

// Delta records a change of v at time t. Timestamps may arrive in any
// order. A NaN timestamp has no place on the time axis — it would compare
// unequal to itself and never integrate — so it panics, like Sample does
// for a NaN step.
func (s *Series) Delta(t, v float64) {
	if math.IsNaN(t) {
		panic("metrics: Series.Delta timestamp is NaN")
	}
	if s.n > 0 {
		last := &s.chunks[(s.n-1)/seriesChunk][(s.n-1)%seriesChunk]
		if last.T == t {
			last.V += v
			return
		}
		if t < last.T {
			s.unsorted = true
		}
	}
	if s.n%seriesChunk == 0 {
		s.chunks = append(s.chunks, new([seriesChunk]SeriesPoint))
	}
	s.chunks[s.n/seriesChunk][s.n%seriesChunk] = SeriesPoint{T: t, V: v}
	s.n++
}

// Points integrates the deltas into the running value sampled at every
// change point, in time order, one point per distinct timestamp.
func (s *Series) Points() []SeriesPoint {
	out := make([]SeriesPoint, 0, s.n)
	for _, c := range s.chunks {
		out = append(out, c[:min(seriesChunk, s.n-len(out))]...)
	}
	if s.unsorted {
		// Stable, so deltas of one timestamp still sum in arrival order.
		sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	}
	// Integrate in place: the write index never passes the read index.
	w, run := 0, 0.0
	for i := 0; i < len(out); {
		t, d := out[i].T, out[i].V
		for i++; i < len(out) && out[i].T == t; i++ {
			d += out[i].V
		}
		run += d
		out[w] = SeriesPoint{T: t, V: run}
		w++
	}
	return out[:w]
}

// Sample returns the series value at regular intervals over [0, end],
// carrying the last value forward; convenient for printing Fig. 10-style
// rows. step must be positive: a zero or negative step would never advance
// the sampling clock (an unbounded allocation loop), so it panics.
func (s *Series) Sample(end, step float64) []SeriesPoint {
	if step <= 0 || math.IsNaN(step) {
		panic(fmt.Sprintf("metrics: Series.Sample step %v must be positive", step))
	}
	pts := s.Points()
	var out []SeriesPoint
	i, cur := 0, 0.0
	for t := 0.0; t <= end+1e-9; t += step {
		for i < len(pts) && pts[i].T <= t {
			cur = pts[i].V
			i++
		}
		out = append(out, SeriesPoint{T: t, V: cur})
	}
	return out
}

// Max returns the maximum value the series ever reaches (0 for empty).
func (s *Series) Max() float64 {
	var m float64
	for _, p := range s.Points() {
		if p.V > m {
			m = p.V
		}
	}
	return m
}
