package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"swift/internal/sched"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := percentile([]float64{0, 10}, 75); got != 7.5 {
		t.Errorf("p75 of {0,10} = %v, want 7.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, which is how run-to-run spread of this benchmark is judged.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !approx(q1, c.want[0]) || !approx(q2, c.want[1]) || !approx(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !approx(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {1000000, 99}} {
		if got := highestSupportedPercentile(c.n); got != c.want {
			t.Errorf("highestSupportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The pinned tail percentile of every workload whose latency sample
	// count is fixed by its inputs is the one the rule gives at full size.
	for name, n := range map[string]int{"replay_batch": 2000, "replay_scale": 400, "replay_fair": 4 * 120, "service_burst": burstJobs} {
		if w := findWorkload(name); w.tailPct != highestSupportedPercentile(n) {
			t.Errorf("%s reports p%g, the rule gives p%g for %d samples", name, w.tailPct, highestSupportedPercentile(n), n)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); !approx(got, 10) {
		t.Errorf("geomean = %v, want 10", got)
	}
	if got := geomean([]float64{42}); !approx(got, 42) {
		t.Errorf("geomean of one value = %v, want it back", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "parent", start: ms(0), end: ms(100), parent: -1},
		{name: "child", start: ms(10), end: ms(30), parent: 0},
		{name: "child", start: ms(20), end: ms(50), parent: 0},      // overlaps the first: counted once
		{name: "child", start: ms(90), end: ms(120), parent: 0},     // clipped to the parent's end
		{name: "grandchild", start: ms(12), end: ms(18), parent: 1}, // comes out of its parent only
		{name: "open", start: ms(40), end: -1, parent: 0},           // unfinished: ignored
	}
	self := selfTimes(spans)
	if got := self["parent"]; got != ms(50) {
		t.Errorf("parent self = %v, want 100 - (40 + 10) = 50ms", got)
	}
	if got := self["child"]; got != ms(20-6+30+30) {
		t.Errorf("child self = %v, want 74ms", got)
	}
	if got := self["grandchild"]; got != ms(6) {
		t.Errorf("grandchild self = %v, want 6ms", got)
	}
	if _, ok := self["open"]; ok {
		t.Error("an unfinished span has a self time")
	}
	if got := totalTimes(spans)["child"]; got != ms(80) {
		t.Errorf("child total = %v, want 80ms", got)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("query", "q-1", -1)
	rec.end(rec.begin("task", "q-1", root))
	rec.end(root)
	rec.begin("open", "q-2", -1)
	var buf bytes.Buffer
	if err := rec.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Ts, Dur  float64
			Tid      int
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want the 2 finished spans", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Tid != 1 {
			t.Errorf("event %+v: want a complete event on the track of q-1", e)
		}
	}
}

// A nil recorder is what the untraced pass hands to the same code.
func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	rec.reserve(10)
	i := rec.begin("x", "", -1)
	rec.end(i)
	rec.add("y", "", i, time.Now(), time.Now())
}

// The timing wrapper must not change a single scheduling decision: the
// same seed gives the same simulated outcome and the same reclaims with it
// and without it.
func TestTimedPolicyIsTransparent(t *testing.T) {
	instI, err := fair.setup(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := instI.(*replayInstance)
	plain, plainRunner := in.replay(fair.options(), nil)

	rec := newRecorder()
	opts := fair.options()
	tp := wrapPolicy(&opts, rec, func() int { return -1 })
	wrapped, wrappedRunner := in.replay(opts, nil)

	if len(tp.jobOrderUS) == 0 {
		t.Fatal("the fair-share replay never asked the policy for a job order")
	}
	if plain.Makespan != wrapped.Makespan {
		t.Errorf("makespan %v with the wrapper, %v without", wrapped.Makespan, plain.Makespan)
	}
	a, b := plain.JobDurations(), wrapped.JobDurations()
	if len(a) != len(b) {
		t.Fatalf("%d completed jobs with the wrapper, %d without", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d took %v with the wrapper, %v without", i, b[i], a[i])
		}
	}
	if p, w := plainRunner.Controller().ReclaimedGangs(), wrappedRunner.Controller().ReclaimedGangs(); p != w {
		t.Errorf("%d reclaims with the wrapper, %d without", w, p)
	}
	if tp.Name() != sched.NewFairShare(sched.FairShareConfig{}).Name() {
		t.Errorf("wrapper reports policy name %q", tp.Name())
	}

	o := batch.options()
	if wrapPolicy(&o, rec, nil) != nil || o.Policy != nil {
		t.Error("the FIFO default was wrapped: the controller would leave its fast path")
	}
}

// Every workload at 1/20 size, both passes: outputs check out and every
// declared metric is reported.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runUntraced(w, 7, 0, 20)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("untraced: %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}
			tr, err := runTraced(w, 7, 20, newRecorder())
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct || tr.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d", tr.Correct, tr.Failed)
			}
			if len(tr.Metrics) != len(perLayer) {
				t.Errorf("traced: %d metrics, want all %d", len(tr.Metrics), len(perLayer))
			}
			policyCalls := tr.Metrics["sched.joborder_calls"].Value
			if (w.name == "replay_fair") != (policyCalls > 0) {
				t.Errorf("traced: %v policy calls on %s", policyCalls, w.name)
			}
			if strings.HasPrefix(w.name, "replay_") {
				sum := tr.Metrics["core.share_of_wall"].Value + tr.Metrics["sim.share_of_wall"].Value +
					tr.Metrics["sched.busy_frac"].Value + tr.Metrics["simrun.self_frac"].Value
				if math.Abs(sum-1) > 0.05 {
					t.Errorf("traced: the layer shares of wall sum to %v", sum)
				}
			}
		})
	}
}

// BENCHMARK.json is written by hand; the program's tables are what it
// reports. They must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		m := spec.EndToEnd[i]
		if m.metricDef != d {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, m.metricDef, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, d := range perLayer {
		if spec.PerLayer[i] != d {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, spec.PerLayer[i], d)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 100, 101, 99}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 100, 60, 140, 100, 90, 110}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", verdictOK},
		{"5% slower within a 10% bound", steady, scaled(1.05), "lower", verdictOK},
		{"20% slower", steady, scaled(1.2), "lower", verdictWorse},
		{"20% faster", steady, scaled(0.8), "lower", verdictOK},
		{"20% less of a higher-is-better metric", steady, scaled(0.8), "higher", verdictWorse},
		{"spread wider than the bound", noisy, noisy, "lower", verdictUnresolved},
	} {
		if _, got := judge(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	set := func(wall float64, failed int) []run {
		var out []run
		for i := 0; i < 4; i++ {
			out = append(out, run{Workload: "replay_batch", Seed: int64(i), Result: result{
				Correct: failed == 0, Attempted: 10, Failed: failed,
				Metrics: map[string]measurement{"wall_s": {Value: wall + float64(i)/1000, Unit: "s"}},
			}})
		}
		return out
	}
	var buf bytes.Buffer
	if !compareRuns(set(1, 0), set(1.01, 0), spec, &buf) {
		t.Errorf("1%% apart was judged worse:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "replay_batch") || !strings.Contains(buf.String(), "wall_s") {
		t.Errorf("no row for replay_batch wall_s:\n%s", buf.String())
	}
	buf.Reset()
	if compareRuns(set(1, 0), set(2, 0), spec, &buf) || !strings.Contains(buf.String(), verdictWorse) {
		t.Errorf("twice as slow was not judged worse:\n%s", buf.String())
	}
	if compareRuns(set(1, 0), set(1, 1), spec, &buf) {
		t.Error("failed operations did not fail the comparison")
	}
}
