package exp

import (
	"bytes"
	"strings"
	"testing"

	"swift/internal/shuffle"
)

// The experiment tests assert the paper's result *shapes* at reduced scale:
// who wins, rough factors, orderings and crossovers. Paper-vs-measured for
// the full-scale runs is recorded in EXPERIMENTS.md.

func cfg() Config { return Config{Reduced: true, Seed: 1} }

func TestFig3IdleRatioShape(t *testing.T) {
	rows := Fig3IdleRatio(cfg())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	sum := 0.0
	for _, r := range rows {
		if r.IdleRatioPct < 0 || r.IdleRatioPct > 60 {
			t.Errorf("cluster %s idle = %.2f%%, out of range", r.Cluster, r.IdleRatioPct)
		}
		sum += r.IdleRatioPct
	}
	// Paper: averages between 3.81% and 14.92% — "a large quantity of
	// resources have been wasted in gang scheduling".
	if avg := sum / 4; avg < 3 || avg > 40 {
		t.Errorf("average idle = %.2f%%, want meaningful waste (3..40)", avg)
	}
}

func TestFig8TraceCharacteristicsShape(t *testing.T) {
	s := Fig8TraceCharacteristics(cfg())
	if s.Jobs < 150 {
		t.Fatalf("too few completed jobs: %d", s.Jobs)
	}
	if s.MeanRuntimeSec < 15 || s.MeanRuntimeSec > 60 {
		t.Errorf("mean runtime = %.1fs, paper ≈30s", s.MeanRuntimeSec)
	}
	if s.FracRuntimeUnder120 < 0.88 {
		t.Errorf("P(<120s) = %.2f, paper >0.9", s.FracRuntimeUnder120)
	}
	if s.FracTasksUnder80 < 0.75 {
		t.Errorf("P(tasks≤80) = %.2f, paper >0.8", s.FracTasksUnder80)
	}
	if s.FracStagesUnder4 < 0.75 {
		t.Errorf("P(stages≤4) = %.2f, paper >0.8", s.FracStagesUnder4)
	}
}

func TestFig9aSwiftBeatsSparkOnEveryQuery(t *testing.T) {
	res := Fig9aTPCH(cfg())
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range res.Rows {
		if r.Speedup <= 1 {
			t.Errorf("%s: speedup %.2f ≤ 1", r.Query, r.Speedup)
		}
	}
	// Paper: total speedup 2.11x; accept a 1.5..3.5 band at reduced scale.
	if res.TotalSpeedup < 1.5 || res.TotalSpeedup > 3.5 {
		t.Errorf("total speedup = %.2f, want ≈2.11", res.TotalSpeedup)
	}
}

func TestFig9bPhaseBreakdownShape(t *testing.T) {
	rows := Fig9bQ9Phases(cfg())
	var sparkLaunch, swiftLaunch, sparkShuffle, swiftShuffle float64
	for _, r := range rows {
		switch r.System {
		case "Spark":
			sparkLaunch += r.Launch
			if r.Stage != "M1" && r.Stage != "M5" { // scans read tables, not shuffle
				sparkShuffle += r.Read + r.Write
			}
		case "Swift":
			swiftLaunch += r.Launch
			if r.Stage != "M1" && r.Stage != "M5" {
				swiftShuffle += r.Read + r.Write
			}
		}
	}
	// Paper Fig. 9b: Spark's launch totals >71s across critical stages;
	// Swift's is negligible. Spark's disk shuffle dwarfs Swift's
	// in-network shuffle (137.8+133.9s vs 8.92+9.61s).
	if sparkLaunch < 10*swiftLaunch {
		t.Errorf("launch: spark=%.1fs swift=%.1fs, want ≥10x gap", sparkLaunch, swiftLaunch)
	}
	if sparkShuffle < 3*swiftShuffle {
		t.Errorf("shuffle: spark=%.1fs swift=%.1fs, want ≥3x gap", sparkShuffle, swiftShuffle)
	}
}

func TestTable1SpeedupGrowsWithJobSize(t *testing.T) {
	rows := Table1Terasort(cfg())
	if len(rows) < 2 {
		t.Fatal("need at least 2 sizes")
	}
	prev := 0.0
	for _, r := range rows {
		if r.Speedup <= 1 {
			t.Errorf("%s: swift not faster (%.2f)", r.Size, r.Speedup)
		}
		if r.Speedup <= prev {
			t.Errorf("%s: speedup %.2f not growing (prev %.2f)", r.Size, r.Speedup, prev)
		}
		prev = r.Speedup
	}
	// Paper: 3.07 at 250² growing to 14.18 at 1500²; the largest reduced
	// size must show a clearly super-proportional gap.
	if last := rows[len(rows)-1]; last.Speedup < 2*rows[0].Speedup {
		t.Errorf("speedup growth too weak: %.2f -> %.2f", rows[0].Speedup, last.Speedup)
	}
}

func TestFig10SwiftFastestJetScopeSlowest(t *testing.T) {
	res := Fig10ExecutorTimeline(cfg())
	swift, bubble, jet := res.Makespan["Swift"], res.Makespan["Bubble"], res.Makespan["JetScope"]
	if !(swift < jet && bubble < jet) {
		t.Errorf("makespans swift=%.0f bubble=%.0f jet=%.0f: JetScope should be slowest", swift, bubble, jet)
	}
	if swift > bubble {
		t.Errorf("swift %.0f slower than bubble %.0f", swift, bubble)
	}
	// Paper: Swift 2.44x, Bubble 1.98x over JetScope.
	if res.SpeedupOverJetScope["Swift"] < 1.3 {
		t.Errorf("swift speedup over jetscope = %.2f, want ≥1.3", res.SpeedupOverJetScope["Swift"])
	}
	for _, sys := range Fig10Systems {
		if len(res.Series[sys]) == 0 {
			t.Errorf("no executor series for %s", sys)
		}
	}
}

func TestFig11LatencyShape(t *testing.T) {
	res := Fig11LatencyCDF(cfg())
	if len(res.Ratios["JetScope"]) == 0 || len(res.Ratios["Bubble"]) == 0 {
		t.Fatal("missing ratio samples")
	}
	// Paper: Swift outperforms Bubble Execution by 1.23x on average.
	if res.MeanBubbleRatio < 1.0 || res.MeanBubbleRatio > 2.0 {
		t.Errorf("mean bubble/swift ratio = %.2f, want ≈1.23", res.MeanBubbleRatio)
	}
	// JetScope must inflate a meaningful share of jobs well past Swift.
	if res.FracJetScopeOver2x < 0.05 {
		t.Errorf("frac jetscope >2x = %.2f, want substantial", res.FracJetScopeOver2x)
	}
	// Ratios are sorted.
	js := res.Ratios["JetScope"]
	for i := 1; i < len(js); i++ {
		if js[i] < js[i-1] {
			t.Fatal("ratios not sorted")
		}
	}
}

func TestFig12WinnersMatchPaper(t *testing.T) {
	cells := Fig12ShuffleModes(cfg())
	if len(cells) != 9 {
		t.Fatalf("cells = %d", len(cells))
	}
	best := Fig12Best(cells)
	if best[shuffle.SmallShuffle] != shuffle.Direct {
		t.Errorf("small winner = %v, want Direct", best[shuffle.SmallShuffle])
	}
	if best[shuffle.MediumShuffle] != shuffle.Remote {
		t.Errorf("medium winner = %v, want Remote", best[shuffle.MediumShuffle])
	}
	if best[shuffle.LargeShuffle] != shuffle.Local {
		t.Errorf("large winner = %v, want Local", best[shuffle.LargeShuffle])
	}
	for _, c := range cells {
		if c.Mode == shuffle.Direct && c.Normalized != 1 {
			t.Errorf("direct not normalized to 1: %v", c)
		}
		if c.Normalized <= 0 {
			t.Errorf("non-positive cell: %v", c)
		}
	}
}

func TestFig13DetailMatchesPaper(t *testing.T) {
	det := Fig13Q13Detail()
	if len(det) != 6 {
		t.Fatalf("rows = %d", len(det))
	}
	if det[0].Stage != "M1" || det[0].Tasks != 498 || det[0].RecordsPerTask != 3012048 {
		t.Errorf("M1 row = %+v", det[0])
	}
}

func TestFig14RecoveryShape(t *testing.T) {
	rows := Fig14FaultInjection(cfg())
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Paper: Swift's slowdown stays under ~10% (we allow 15%).
		if r.SwiftSlowdownPct > 15 {
			t.Errorf("t=%d %s: swift slowdown %.1f%% too high", r.InjectAtPct, r.Stage, r.SwiftSlowdownPct)
		}
		if r.SwiftSlowdownPct < -2 {
			t.Errorf("t=%d: negative slowdown %.1f%%", r.InjectAtPct, r.SwiftSlowdownPct)
		}
	}
	// No slowdown for the first injection: M2's output already flowed on.
	if rows[0].SwiftSlowdownPct > 1 {
		t.Errorf("t=20 swift slowdown = %.1f%%, paper: none", rows[0].SwiftSlowdownPct)
	}
	// Restart slowdown grows roughly with injection time and far exceeds
	// Swift's on late injections.
	last := rows[len(rows)-1]
	if last.RestartSlowdownPct < 50 {
		t.Errorf("restart at t=100 only %.1f%%", last.RestartSlowdownPct)
	}
	if last.RestartSlowdownPct < 3*last.SwiftSlowdownPct {
		t.Errorf("restart %.1f%% not ≫ swift %.1f%%", last.RestartSlowdownPct, last.SwiftSlowdownPct)
	}
}

func TestFig15RecoveryBeatsRestart(t *testing.T) {
	res := Fig15TraceFailures(cfg())
	if res.BaselineNorm != 100 {
		t.Fatal("baseline not normalized")
	}
	// Paper: restart ≈ +45%, Swift ≈ +5%.
	if res.SwiftSlowdownPct < 0 || res.SwiftSlowdownPct > 15 {
		t.Errorf("swift slowdown = %.1f%%, want small (paper ≈5%%)", res.SwiftSlowdownPct)
	}
	if res.RestartSlowdownPct < 2.5*res.SwiftSlowdownPct {
		t.Errorf("restart %.1f%% not ≫ swift %.1f%%", res.RestartSlowdownPct, res.SwiftSlowdownPct)
	}
	if res.RestartSlowdownPct < 10 {
		t.Errorf("restart slowdown = %.1f%%, implausibly low", res.RestartSlowdownPct)
	}
}

func TestFig16NearLinearScaling(t *testing.T) {
	rows := Fig16Scalability(cfg())
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Speedup != 1 {
		t.Errorf("baseline speedup = %.2f", rows[0].Speedup)
	}
	prev := 0.0
	for _, r := range rows {
		if r.Speedup <= prev {
			t.Errorf("speedup not monotone at %d executors: %.2f", r.Executors, r.Speedup)
		}
		prev = r.Speedup
	}
	last := rows[len(rows)-1]
	if eff := last.Speedup / last.Ideal; eff < 0.6 {
		t.Errorf("scaling efficiency at %d executors = %.2f, want ≥0.6 (near-linear)", last.Executors, eff)
	}
}

// TestFairShareAcceptance pins the fairness sweep's headline claims: under
// the fair policy every burst intensity keeps Jain's index ≥ 0.9 with
// weight-normalized shares within 10% of each other, the 10x burst forces
// actual gang reclaims (not just grant withholding), and FIFO demonstrably
// lacks all of this — the bursting tenant takes over and its neighbours'
// p99 collapses onto the burst's.
func TestFairShareAcceptance(t *testing.T) {
	rows := FairShare(cfg())
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 bursts x 2 policies)", len(rows))
	}
	byKey := map[string]FairShareRow{}
	for _, r := range rows {
		byKey[r.Burst+"/"+r.Policy] = r
		if r.ContendedSec <= 0 {
			t.Errorf("%s/%s: empty contention window", r.Burst, r.Policy)
		}
		if r.Completed != r.Jobs {
			t.Errorf("%s/%s: %d of %d jobs completed", r.Burst, r.Policy, r.Completed, r.Jobs)
		}
	}
	for _, burst := range []string{"1x", "3x", "10x"} {
		fair := byKey[burst+"/fair"]
		if fair.Jain < 0.9 {
			t.Errorf("%s fair: Jain = %.3f, want ≥ 0.9", burst, fair.Jain)
		}
		if fair.MaxDevPct > 10 {
			t.Errorf("%s fair: weighted shares deviate %.1f%%, want ≤ 10%%", burst, fair.MaxDevPct)
		}
		if fair.Reclaims == 0 {
			t.Errorf("%s fair: no gang reclaims — the burst never exercised preemption", burst)
		}
	}
	fifo10, fair10 := byKey["10x/fifo"], byKey["10x/fair"]
	if fifo10.Jain >= fair10.Jain {
		t.Errorf("10x: FIFO Jain %.3f not below fair %.3f", fifo10.Jain, fair10.Jain)
	}
	if fifo10.Shares[1] < 0.6 {
		t.Errorf("10x fifo: bursting tenant share = %.2f, want monopolization (≥ 0.6)", fifo10.Shares[1])
	}
	// Isolation: under FIFO the innocent tenants' p99 rides the burst; the
	// fair policy must cut it to well under half.
	for _, i := range []int{0, 2} {
		if fair10.P99[i] >= fifo10.P99[i]/2 {
			t.Errorf("10x tenant %s: fair p99 %.1fs not ≪ fifo p99 %.1fs", fairTenants[i], fair10.P99[i], fifo10.P99[i])
		}
	}
}

func TestRunRegistryCoversAllExperiments(t *testing.T) {
	names := Names()
	want := []string{"fig3", "fig8", "fig9a", "fig9b", "table1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "flowburst", "fairshare", "shufflerecovery", "ablation-shuffle", "ablation-partition"}
	if len(names) != len(want) {
		t.Fatalf("registry has %d entries: %v", len(names), names)
	}
	if ok, _ := Run("nope", cfg(), &bytes.Buffer{}); ok {
		t.Error("unknown experiment accepted")
	}
	// Smoke-run the cheap reports through the registry.
	for _, n := range []string{"fig13", "fig9a", "table1"} {
		var b bytes.Buffer
		ok, err := Run(n, cfg(), &b)
		if !ok || err != nil {
			t.Fatalf("Run(%s) failed: ok=%v err=%v", n, ok, err)
		}
		if b.Len() == 0 {
			t.Errorf("Run(%s) produced no output", n)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tbl.Add("x", 1.5)
	tbl.Add("longer", "v")
	var b bytes.Buffer
	if _, err := tbl.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"T\n", "a", "bb", "1.50", "longer", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
