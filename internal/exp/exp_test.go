package exp

import (
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"swift/internal/obs"
)

func cfg() Config { return Config{Seed: 1} }

// checkFidelity runs one paper experiment on seeds 1–3, holds each of its
// Fidelity rows to its band and seed 1's obs stream hash to the pinned
// table, and returns seed 1's result. A result too short for a row's
// extractor panics the test.
func checkFidelity(t *testing.T, name string) (seed1 any) {
	return checkSeeds(t, name, func(c Config) (any, []Measured) {
		result, _ := registry[name](c)
		return result, measure(name, result)
	})
}

// checkSeeds runs run on seeds 1–3, seed 1 under a hash-only recorder, and
// fails t for each measured value outside its band and unless seed 1's
// stream hash is name's pinned one. It returns seed 1's result.
func checkSeeds(t *testing.T, name string, run func(Config) (any, []Measured)) (seed1 any) {
	t.Parallel()
	for seed := int64(1); seed <= 3; seed++ {
		c := Config{Seed: seed}
		if seed == 1 {
			c.Obs = obs.NewHash()
		}
		result, ms := run(c)
		for _, m := range ms {
			if !m.InBand() {
				t.Errorf("seed %d: %s %s = %.4g, outside band %v", seed, name, m.Row.Metric, m.Value, m.Band)
			}
		}
		if seed == 1 {
			checkPinned(t, name, c.Obs.StreamHash())
			seed1 = result
		}
	}
	return seed1
}

func TestFig3IdleRatioShape(t *testing.T)               { checkFidelity(t, "fig3") }
func TestFig8TraceCharacteristicsShape(t *testing.T)    { checkFidelity(t, "fig8") }
func TestFig9aSwiftBeatsSparkOnEveryQuery(t *testing.T) { checkFidelity(t, "fig9a") }
func TestFig9bPhaseBreakdownShape(t *testing.T)         { checkFidelity(t, "fig9b") }
func TestTable1SpeedupGrowsWithJobSize(t *testing.T)    { checkFidelity(t, "table1") }
func TestFig12WinnersMatchPaper(t *testing.T)           { checkFidelity(t, "fig12") }
func TestFig13DetailMatchesPaper(t *testing.T)          { checkFidelity(t, "fig13") }
func TestFig14RecoveryShape(t *testing.T)               { checkFidelity(t, "fig14") }
func TestFig15RecoveryBeatsRestart(t *testing.T)        { checkFidelity(t, "fig15") }

// fig16Short is the Fig. 16 sweep the tests run, a tenth of the full one:
// 1,000–8,000 executors replaying 1,200 jobs with runtimes scaled by 3 and
// capped at 60 s. The full sweep takes most of a minute a seed and runs in
// scripts/ci.sh -long.
func fig16Short(c Config) []Fig16Row {
	return fig16Scalability(c, []int{1000, 2000, 4000, 8000}, 1200, 3, 60)
}

// TestFig16NearLinearScaling holds the short sweep to its own bands, one
// per point: it has no 14x point, and its scaling is not the full
// sweep's.
func TestFig16NearLinearScaling(t *testing.T) {
	short := []Band{{1, 1}, {1, 1.03}, {0.962, 1}, {0.898, 0.968}}
	checkSeeds(t, "fig16", func(c Config) (any, []Measured) {
		rows := fig16Short(c)
		var ms []Measured
		for i := range Fidelity {
			if r := &Fidelity[i]; r.Exp == "fig16" && len(ms) < len(short) {
				ms = append(ms, Measured{r, short[len(ms)], r.Value(rows)})
			}
		}
		return rows, ms
	})
}

func TestFig10SwiftFastestJetScopeSlowest(t *testing.T) {
	series := checkFidelity(t, "fig10").(Fig10Result).Series
	for _, sys := range Fig10Systems {
		if len(series[sys]) == 0 {
			t.Errorf("no executor series for %s", sys)
		}
	}
}

func TestFig11LatencyShape(t *testing.T) {
	if rs := checkFidelity(t, "fig11").(Fig11Result).Ratios; !slices.IsSorted(rs["JetScope"]) || !slices.IsSorted(rs["Bubble"]) {
		t.Error("ratios not sorted")
	}
}

// TestFidelityDoc holds EXPERIMENTS.md's fidelity block to the table: it
// is what full-size swiftbench -seed 1 prints, so re-rendering it from its
// own measured column must reproduce it, with no cell out of its band.
func TestFidelityDoc(t *testing.T) {
	data, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := append(regexp.MustCompile("(?s)```\n(Fidelity —.*?)```").FindStringSubmatch(string(data)), "", "")[1] // "" if missing
	lines := strings.Split(doc, "\n")
	var ms []Measured
	for i, r := range Fidelity {
		cells := regexp.MustCompile(`\s{2,}`).Split(lines[min(3+i, len(lines)-1)], -1)
		v, _ := strconv.ParseFloat(cells[min(4, len(cells)-1)], 64) // a bad cell renders differently
		ms = append(ms, Measured{&Fidelity[i], r.Full, v})
	}
	trail := regexp.MustCompile(`(?m) +$`)
	if got, want := trail.ReplaceAllString(doc, ""), trail.ReplaceAllString(FidelityTable(Config{Seed: 1}, ms).String(), ""); got != want || strings.Contains(want, "OUT") {
		t.Errorf("EXPERIMENTS.md's fidelity block is not the table's, or holds a value out of its band; the table renders it as\n%s", want)
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
	want := []string{"fig3", "fig8", "fig9a", "fig9b", "table1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "flowburst", "fairshare", "shufflerecovery", "ablation-shuffle", "ablation-partition"}
	if !slices.Equal(PaperOrder(), want[:12]) {
		t.Errorf("paper order = %v, want %v", PaperOrder(), want[:12])
	}
	if slices.Sort(want); !slices.Equal(Names(), want) {
		t.Errorf("registry = %v, want %v", Names(), want)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tbl.Add("x", 1.5)
	tbl.Add("longer", "v")
	out := tbl.String()
	for _, want := range []string{"T\n", "a", "bb", "1.50", "longer", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
