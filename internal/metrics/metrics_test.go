package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"swift/internal/raceflag"
)

func TestQuantileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Quantile([]float64{1, 2, 3, 4}, 0.5); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("even-sample median = %g, want 2.5", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty sample should give NaN")
	}
	// Out-of-range p clamps.
	if got := Quantile(xs, -1); got != 1 {
		t.Errorf("clamped low = %g", got)
	}
	if got := Quantile(xs, 2); got != 5 {
		t.Errorf("clamped high = %g", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestFourQuartiles(t *testing.T) {
	q := FourQuartiles([]float64{10, 20, 30, 40, 50})
	if q.Min != 10 || q.Q1 != 20 || q.Median != 30 || q.Q3 != 40 || q.Max != 50 {
		t.Errorf("quartiles = %+v", q)
	}
	if math.Abs(q.Mid()-30) > 1e-12 {
		t.Errorf("Mid = %g", q.Mid())
	}
	if q.String() == "" {
		t.Error("empty String()")
	}
}

func TestMeanSumGeoMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %g", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean = %g", got)
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Error("GeoMean with negatives should be NaN")
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Error("GeoMean(nil) should be NaN")
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FractionBelow(xs, 2); got != 0.5 {
		t.Errorf("FractionBelow(2) = %g", got)
	}
	if got := FractionBelow(xs, 0); got != 0 {
		t.Errorf("FractionBelow(0) = %g", got)
	}
	if got := FractionBelow(xs, 10); got != 1 {
		t.Errorf("FractionBelow(10) = %g", got)
	}
	// A sample equal to x counts: callers print the result as P(<=x).
	if got := FractionBelow([]float64{80, 80, 81}, 80); got != 2.0/3 {
		t.Errorf("FractionBelow(80) over {80, 80, 81} = %g, want 2/3", got)
	}
	if !math.IsNaN(FractionBelow(nil, 1)) {
		t.Error("empty sample should be NaN")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for _, x := range []float64{5, 15, 15, 95, -3, 250} {
		h.Add(x)
	}
	if h.Total != 6 {
		t.Errorf("Total = %d", h.Total)
	}
	if h.Counts[0] != 1 { // just 5; -3 is underflow, not clamped in
		t.Errorf("bin0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 2 {
		t.Errorf("bin1 = %d", h.Counts[1])
	}
	if h.Counts[9] != 1 { // just 95; 250 is overflow, not clamped in
		t.Errorf("bin9 = %d", h.Counts[9])
	}
	if h.Underflow != 1 || h.Overflow != 1 {
		t.Errorf("Underflow/Overflow = %d/%d, want 1/1", h.Underflow, h.Overflow)
	}
	if got := h.BinCenter(0); got != 5 {
		t.Errorf("BinCenter(0) = %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid bounds did not panic")
		}
	}()
	NewHistogram(10, 10, 5)
}

func TestSeries(t *testing.T) {
	s := NewSeries()
	s.Delta(1, +5)
	s.Delta(3, -2)
	s.Delta(2, +1)
	pts := s.Points()
	want := []SeriesPoint{{1, 5}, {2, 6}, {3, 4}}
	for i, w := range want {
		if pts[i] != w {
			t.Fatalf("Points()[%d] = %+v, want %+v", i, pts[i], w)
		}
	}
	if got := s.Max(); got != 6 {
		t.Errorf("Max = %g", got)
	}
	samp := s.Sample(4, 1)
	wantV := []float64{0, 5, 6, 4, 4}
	for i, w := range wantV {
		if samp[i].V != w {
			t.Fatalf("Sample[%d] = %+v, want V=%g", i, samp[i], w)
		}
	}
}

// TestQuantileProperty: quantiles are monotone in p and bounded by the
// sample extremes for random samples.
func TestQuantileProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0001; p += 0.05 {
			q := Quantile(xs, p)
			if q < prev-1e-9 || q < sorted[0]-1e-9 || q > sorted[n-1]+1e-9 {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Regression: Series.Sample with a non-positive step used to loop (and
// allocate) forever because the sampling clock never advanced. It must
// panic instead of hanging.
func TestSeriesSampleNonPositiveStepPanics(t *testing.T) {
	s := NewSeries()
	s.Delta(1, +1)
	for _, step := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sample(10, %v) did not panic", step)
				}
			}()
			s.Sample(10, step)
		}()
	}
}

// Regression: FourQuartiles used to copy and sort the sample once per
// Quantile call (five times). It must agree with per-quantile computation
// exactly while sorting only once — pinned by an allocation count.
func TestFourQuartilesEquivalenceAndAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(60)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 50
		}
		q := FourQuartiles(xs)
		want := Quartiles{
			Min:    Quantile(xs, 0),
			Q1:     Quantile(xs, 0.25),
			Median: Quantile(xs, 0.5),
			Q3:     Quantile(xs, 0.75),
			Max:    Quantile(xs, 1),
		}
		if q != want {
			t.Fatalf("trial %d: FourQuartiles = %+v, want %+v", trial, q, want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	// One sorted copy of the sample: exactly one allocation.
	allocs := testing.AllocsPerRun(20, func() { FourQuartiles(xs) })
	if allocs > 1 {
		t.Errorf("FourQuartiles allocates %.0f times per run, want 1 (single sort)", allocs)
	}
	empty := FourQuartiles(nil)
	if !math.IsNaN(empty.Min) || !math.IsNaN(empty.Median) || !math.IsNaN(empty.Max) {
		t.Errorf("FourQuartiles(nil) = %+v, want all NaN", empty)
	}
}

// Regression: Histogram.Add used to clamp out-of-range observations into
// the first/last bin, silently distorting distribution shapes. They must
// land in Underflow/Overflow and leave the bins untouched.
func TestHistogramOutOfRangeNotClamped(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(-0.001)
	h.Add(10) // hi is exclusive
	h.Add(1e9)
	h.Add(math.NaN())
	for i, c := range h.Counts {
		if c != 0 {
			t.Errorf("bin %d = %d, want 0 (nothing in range was added)", i, c)
		}
	}
	if h.Underflow != 1 {
		t.Errorf("Underflow = %d, want 1", h.Underflow)
	}
	if h.Overflow != 3 {
		t.Errorf("Overflow = %d, want 3 (10, 1e9 and NaN)", h.Overflow)
	}
	if h.Total != 4 {
		t.Errorf("Total = %d, want 4", h.Total)
	}
	h.Add(0) // lo is inclusive
	h.Add(9.999)
	if h.Counts[0] != 1 || h.Counts[4] != 1 {
		t.Errorf("edge bins = %d/%d, want 1/1", h.Counts[0], h.Counts[4])
	}
}

// Regression: Quartiles.Mid is Tukey's trimean (Q1 + 2·Median + Q3) / 4.
// An earlier revision computed (Q1+Median+Q3)/3, which is neither the
// midhinge nor the trimean; an asymmetric sample distinguishes them.
func TestQuartilesMidIsTrimean(t *testing.T) {
	q := Quartiles{Q1: 2, Median: 3, Q3: 10}
	want := (2 + 2*3 + 10) / 4.0 // 4.5; the old formula gave 5
	if got := q.Mid(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Mid = %g, want trimean %g", got, want)
	}
	// Symmetric sample: trimean equals median.
	sym := FourQuartiles([]float64{10, 20, 30, 40, 50})
	if got := sym.Mid(); math.Abs(got-30) > 1e-12 {
		t.Errorf("symmetric Mid = %g, want 30", got)
	}
}

// NaN policy: Quantile and FourQuartiles strip NaN observations before
// computing order statistics (sort.Float64s gives NaNs an arbitrary
// position, which used to poison every quartile). All-NaN samples behave
// like empty ones.
func TestQuantileNaNPolicy(t *testing.T) {
	nan := math.NaN()
	xs := []float64{3, nan, 1, nan, 2}
	if got := Quantile(xs, 0.5); got != 2 {
		t.Errorf("median with NaNs = %g, want 2 (NaNs stripped)", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("min with NaNs = %g, want 1", got)
	}
	if got := Quantile(xs, 1); got != 3 {
		t.Errorf("max with NaNs = %g, want 3", got)
	}
	q := FourQuartiles(xs)
	if q.Min != 1 || q.Median != 2 || q.Max != 3 {
		t.Errorf("FourQuartiles with NaNs = %+v", q)
	}
	if !math.IsNaN(Quantile([]float64{nan, nan}, 0.5)) {
		t.Error("all-NaN sample should give NaN")
	}
	allNaN := FourQuartiles([]float64{nan})
	if !math.IsNaN(allNaN.Median) {
		t.Errorf("FourQuartiles(all-NaN) = %+v, want NaN", allNaN)
	}
}

// Regression: Delta with a NaN timestamp used to insert one unreachable
// map key per call (NaN != NaN), which Points then read back as a zero
// delta — silently dropping the change — in an order sort.Float64s leaves
// undefined. NaN has no place on the time axis: it must panic, as Sample
// does for a NaN step.
func TestSeriesDeltaNaNTimestampPanics(t *testing.T) {
	s := NewSeries()
	s.Delta(1, +1)
	defer func() {
		if recover() == nil {
			t.Errorf("Delta(NaN, 1) did not panic; Points() = %v", s.Points())
		}
	}()
	s.Delta(math.NaN(), +1)
}

// mapSeries is the previous Series implementation, kept as the oracle: a
// map of summed deltas, sorted at read time.
type mapSeries map[float64]float64

func (m mapSeries) points() []SeriesPoint {
	ts := make([]float64, 0, len(m))
	for t := range m {
		ts = append(ts, t)
	}
	sort.Float64s(ts)
	out := make([]SeriesPoint, 0, len(ts))
	run := 0.0
	for _, t := range ts {
		run += m[t]
		out = append(out, SeriesPoint{T: t, V: run})
	}
	return out
}

// TestSeriesMatchesMapOracle: monotone, equal and out-of-order timestamps
// integrate to the same Points, Sample and Max as the map version. Deltas
// are small integers, as every production consumer's are (Fig. 10 counts
// executors), so sums are exact in any association.
func TestSeriesMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		s, oracle := NewSeries(), mapSeries{}
		clock := 0.0
		for i, n := 0, r.Intn(200); i < n; i++ {
			var ts float64
			switch r.Intn(4) {
			case 0: // same instant again
				ts = clock
			case 1: // out of order: anywhere in the past, ties likely
				ts = float64(r.Intn(int(clock) + 1))
			default: // monotone, like a simulation clock
				clock += float64(r.Intn(3))
				ts = clock
			}
			v := float64(r.Intn(7) - 3)
			s.Delta(ts, v)
			oracle[ts] += v
		}
		want := oracle.points()
		got := s.Points()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d points, map version has %d", seed, len(got), len(want))
		}
		max := 0.0
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: Points()[%d] = %+v, map version %+v", seed, i, got[i], want[i])
			}
			if want[i].V > max {
				max = want[i].V
			}
		}
		if s.Max() != max {
			t.Errorf("seed %d: Max = %g, map version %g", seed, s.Max(), max)
		}
		samp := s.Sample(clock+2, 0.75)
		j, cur := 0, 0.0
		for _, p := range samp {
			for j < len(want) && want[j].T <= p.T {
				cur = want[j].V
				j++
			}
			if p.V != cur {
				t.Fatalf("seed %d: Sample at t=%g is %g, map version %g", seed, p.T, p.V, cur)
			}
		}
	}
}

// flatSeries is the single-slice Series the chunked one replaced, kept as
// the reference: one append per distinct consecutive timestamp, a stable
// sort at read time when some delta arrived out of order.
type flatSeries struct {
	deltas   []SeriesPoint
	unsorted bool
}

func (f *flatSeries) delta(t, v float64) {
	if n := len(f.deltas); n > 0 {
		last := &f.deltas[n-1]
		if last.T == t {
			last.V += v
			return
		}
		if t < last.T {
			f.unsorted = true
		}
	}
	f.deltas = append(f.deltas, SeriesPoint{T: t, V: v})
}

func (f *flatSeries) points() []SeriesPoint {
	ds := f.deltas
	if f.unsorted {
		ds = append([]SeriesPoint(nil), ds...)
		sort.SliceStable(ds, func(i, j int) bool { return ds[i].T < ds[j].T })
	}
	var out []SeriesPoint
	run := 0.0
	for i := 0; i < len(ds); {
		t, d := ds[i].T, ds[i].V
		for i++; i < len(ds) && ds[i].T == t; i++ {
			d += ds[i].V
		}
		run += d
		out = append(out, SeriesPoint{T: t, V: run})
	}
	return out
}

// TestSeriesMatchesFlatReference: across more than three chunks, Points,
// Sample and Max equal the single-slice reference bit for bit — with
// fractional deltas, so a changed summation order would show. Every run
// folds a same-timestamp delta into the last slot of a chunk and puts the
// next timestamp at the head of the following one; half the seeds also
// record out-of-order timestamps.
func TestSeriesMatchesFlatReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		s, ref := NewSeries(), &flatSeries{}
		clock, folded := 0.0, 0
		record := func(ts, v float64) {
			s.Delta(ts, v)
			ref.delta(ts, v)
		}
		for s.n < 3*seriesChunk+seriesChunk/2 {
			switch {
			case s.n%seriesChunk == 0 && s.n > folded:
				// A chunk just filled: fold into its last slot first.
				folded = s.n
				record(s.chunks[len(s.chunks)-1][seriesChunk-1].T, r.Float64()-0.5)
			case seed%2 == 0 && r.Intn(8) == 0:
				record(clock*r.Float64(), r.Float64()-0.5) // the past
			default:
				clock += float64(1 + r.Intn(3))
				record(clock, r.Float64()*4-2)
			}
		}
		if len(s.chunks) < 4 {
			t.Fatalf("seed %d: %d chunks, want the run to span at least 4", seed, len(s.chunks))
		}
		want, got := ref.points(), s.Points()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d points, reference %d", seed, len(got), len(want))
		}
		max := 0.0
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: Points()[%d] = %+v, reference %+v", seed, i, got[i], want[i])
			}
			max = math.Max(max, want[i].V)
		}
		if s.Max() != max {
			t.Errorf("seed %d: Max = %g, reference %g", seed, s.Max(), max)
		}
		samp := s.Sample(clock+2, 3.5)
		j, cur := 0, 0.0
		for _, p := range samp {
			for j < len(want) && want[j].T <= p.T {
				cur = want[j].V
				j++
			}
			if p.V != cur {
				t.Fatalf("seed %d: Sample at t=%g is %g, reference %g", seed, p.T, p.V, cur)
			}
		}
	}
}

// TestSeriesDeltaAllocs: a series grows by one chunk at a time and never
// copies what it holds, so recording a chunk's worth of distinct
// timestamps costs at most one allocation (the chunk; the chunk index
// grows by doubling, below AllocsPerRun's integer mean), and folding into
// the last delta costs none.
func TestSeriesDeltaAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	s := NewSeries()
	clock := 0.0
	allocs := testing.AllocsPerRun(64, func() {
		for i := 0; i < seriesChunk; i++ {
			clock++
			s.Delta(clock, 1)
		}
	})
	if allocs > 1 {
		t.Errorf("Delta: %.0f allocs per chunk of distinct timestamps, want ≤ 1", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { s.Delta(clock, -1) }); allocs != 0 {
		t.Errorf("Delta folding into the last timestamp: %.0f allocs, want 0", allocs)
	}
}
