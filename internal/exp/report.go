package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table renders rows of columns with aligned widths, in the style of the
// paper's tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.Rows {
		line(r)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Names lists the experiment identifiers runnable by Run.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// registry maps experiment ids to report functions.
var registry = map[string]func(Config, io.Writer) error{
	"ablation-partition": reportAblationPartition,
	"ablation-shuffle":   reportAblationShuffle,
	"fig3":               reportFig3,
	"fig8":               reportFig8,
	"fig9a":              reportFig9a,
	"fig9b":              reportFig9b,
	"table1":             reportTable1,
	"fig10":              reportFig10,
	"fig11":              reportFig11,
	"fig12":              reportFig12,
	"fig13":              reportFig13,
	"fig14":              reportFig14,
	"fig15":              reportFig15,
	"fig16":              reportFig16,
	"flowburst":          reportFlowBurst,
	"fairshare":          reportFairShare,
	"shufflerecovery":    reportShuffleRecovery,
}

// Run executes one named experiment and writes its paper-style report. It
// returns false for unknown names; the error is the first write failure.
func Run(name string, cfg Config, w io.Writer) (bool, error) {
	fn, ok := registry[name]
	if !ok {
		return false, nil
	}
	return true, fn(cfg, w)
}

func reportFig3(cfg Config, w io.Writer) error {
	t := &Table{Title: "Fig. 3 — IdleRatio under gang scheduling (paper: 3.81 / 13.15 / 14.45 / 14.92 %)",
		Headers: []string{"cluster", "idle_ratio_%"}}
	for _, r := range Fig3IdleRatio(cfg) {
		t.Add("#"+r.Cluster, r.IdleRatioPct)
	}
	_, err := t.WriteTo(w)
	return err
}

func reportFig8(cfg Config, w io.Writer) error {
	s := Fig8TraceCharacteristics(cfg)
	t := &Table{Title: "Fig. 8 — trace characteristics (paper: mean 30 s, >90% <120 s, >80% ≤80 tasks & ≤4 stages)",
		Headers: []string{"metric", "value"}}
	t.Add("jobs completed", s.Jobs)
	t.Add("mean runtime (s)", s.MeanRuntimeSec)
	t.Add("P(runtime<120s)", s.FracRuntimeUnder120)
	t.Add("P(tasks<=80)", s.FracTasksUnder80)
	t.Add("P(stages<=4)", s.FracStagesUnder4)
	_, err := t.WriteTo(w)
	return err
}

func reportFig9a(cfg Config, w io.Writer) error {
	res := Fig9aTPCH(cfg)
	t := &Table{Title: "Fig. 9(a) — TPC-H 1 TB, Swift vs Spark (paper total speedup: 2.11x)",
		Headers: []string{"query", "spark_s", "swift_s", "speedup"}}
	for _, r := range res.Rows {
		t.Add(r.Query, r.SparkSec, r.SwiftSec, r.Speedup)
	}
	t.Add("TOTAL", "", "", res.TotalSpeedup)
	_, err := t.WriteTo(w)
	return err
}

func reportFig9b(cfg Config, w io.Writer) error {
	t := &Table{Title: "Fig. 9(b) — Q9 phase breakdown (L/SR/P/SW seconds per critical task)",
		Headers: []string{"stage", "system", "launch", "read", "process", "write"}}
	for _, r := range Fig9bQ9Phases(cfg) {
		t.Add(r.Stage, r.System, r.Launch, r.Read, r.Process, r.Write)
	}
	_, err := t.WriteTo(w)
	return err
}

func reportTable1(cfg Config, w io.Writer) error {
	t := &Table{Title: "Table I — Terasort (paper speedups: 3.07 / 3.96 / 7.06 / 14.18)",
		Headers: []string{"job_size", "spark_s", "swift_s", "speedup"}}
	for _, r := range Table1Terasort(cfg) {
		t.Add(r.Size, r.SparkSec, r.SwiftSec, r.Speedup)
	}
	_, err := t.WriteTo(w)
	return err
}

func reportFig10(cfg Config, w io.Writer) error {
	res := Fig10ExecutorTimeline(cfg)
	t := &Table{Title: "Fig. 10 — trace replay makespan (paper: Swift 2.44x, Bubble 1.98x over JetScope)",
		Headers: []string{"system", "makespan_s", "speedup_vs_jetscope", "peak_executors"}}
	for _, sys := range Fig10Systems {
		peak := 0.0
		for _, p := range res.Series[sys] {
			if p.V > peak {
				peak = p.V
			}
		}
		t.Add(sys, res.Makespan[sys], res.SpeedupOverJetScope[sys], peak)
	}
	_, err := t.WriteTo(w)
	return err
}

func reportFig11(cfg Config, w io.Writer) error {
	res := Fig11LatencyCDF(cfg)
	t := &Table{Title: "Fig. 11 — job latency vs Swift (paper: >60% of JetScope jobs >2x Swift)",
		Headers: []string{"metric", "value"}}
	t.Add("frac JetScope jobs >2x Swift", res.FracJetScopeOver2x)
	t.Add("mean Bubble/Swift latency", res.MeanBubbleRatio)
	for _, sys := range []string{"JetScope", "Bubble"} {
		rs := res.Ratios[sys]
		if len(rs) == 0 {
			continue
		}
		t.Add(sys+" median ratio", rs[len(rs)/2])
		t.Add(sys+" p90 ratio", rs[len(rs)*9/10])
	}
	_, err := t.WriteTo(w)
	return err
}

func reportFig12(cfg Config, w io.Writer) error {
	t := &Table{Title: "Fig. 12 — shuffle-mode ablation, normalized to Direct (paper winners: Direct/Remote/Local)",
		Headers: []string{"class", "mode", "normalized_time"}}
	cells := Fig12ShuffleModes(cfg)
	for _, c := range cells {
		t.Add(c.Class.String(), c.Mode.String(), fmt.Sprintf("%.3f", c.Normalized))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	best := Fig12Best(cells)
	_, err := fmt.Fprintf(w, "winners: small=%v medium=%v large=%v\n",
		best[0], best[1], best[2])
	return err
}

func reportFig13(_ Config, w io.Writer) error {
	t := &Table{Title: "Fig. 13 — TPC-H Q13 job detail",
		Headers: []string{"stage", "tasks", "records/task", "input/task"}}
	for _, d := range Fig13Q13Detail() {
		t.Add(d.Stage, d.Tasks, d.RecordsPerTask, d.InputSizePerTask)
	}
	_, err := t.WriteTo(w)
	return err
}

func reportFig14(cfg Config, w io.Writer) error {
	t := &Table{Title: "Fig. 14 — Q13 fault injection (paper: Swift <10% slowdown at every point)",
		Headers: []string{"inject_at", "stage", "swift_slowdown_%", "restart_slowdown_%"}}
	for _, r := range Fig14FaultInjection(cfg) {
		t.Add(r.InjectAtPct, r.Stage, r.SwiftSlowdownPct, r.RestartSlowdownPct)
	}
	_, err := t.WriteTo(w)
	return err
}

func reportFig15(cfg Config, w io.Writer) error {
	res := Fig15TraceFailures(cfg)
	t := &Table{Title: "Fig. 15 — trace replay with failures (paper: restart +45%, Swift +5%)",
		Headers: []string{"policy", "mean_slowdown_%", "quartiles(normalized)"}}
	t.Add("fine-grained (Swift)", res.SwiftSlowdownPct, res.SwiftQuartiles.String())
	t.Add("job restart", res.RestartSlowdownPct, res.RestartQuartiles.String())
	_, err := t.WriteTo(w)
	return err
}

func reportFlowBurst(cfg Config, w io.Writer) error {
	t := &Table{Title: "Sustained load — admission control under 1x/3x/10x arrival storms",
		Headers: []string{"burst", "offered", "admitted", "queued", "shed", "wait_p50_s", "wait_p99_s", "max_queue", "max_inflight", "budget", "completed"}}
	for _, r := range FlowBurst(cfg) {
		t.Add(r.Burst, r.Offered, r.Admitted, r.Queued, r.Shed, r.WaitP50, r.WaitP99, r.MaxQueueSeen, r.MaxInFlight, r.Budget, r.Completed)
	}
	_, err := t.WriteTo(w)
	return err
}

func reportFairShare(cfg Config, w io.Writer) error {
	t := &Table{Title: "Fair share — three tenants (weights 2:1:1), tenant b bursting 1x/3x/10x",
		Headers: []string{"burst", "policy", "contended_s", "share_a", "share_b", "share_c", "jain", "max_dev_%", "p99_a_s", "p99_b_s", "p99_c_s", "reclaims", "completed"}}
	for _, r := range FairShare(cfg) {
		t.Add(r.Burst, r.Policy, r.ContendedSec,
			r.Shares[0], r.Shares[1], r.Shares[2], r.Jain, r.MaxDevPct,
			r.P99[0], r.P99[1], r.P99[2], r.Reclaims, r.Completed)
	}
	_, err := t.WriteTo(w)
	return err
}

func reportAblationShuffle(cfg Config, w io.Writer) error {
	t := &Table{Title: "Ablation — adaptive shuffle vs each fixed mode on a mixed small/medium/large workload",
		Headers: []string{"policy", "mean_s"}}
	for _, r := range AblationAdaptiveShuffle(cfg) {
		t.Add(r.Policy, r.MeanSec)
	}
	_, err := t.WriteTo(w)
	return err
}

func reportAblationPartition(cfg Config, w io.Writer) error {
	t := &Table{Title: "Ablation — graphlet vs per-stage vs whole-job partitioning on the Fig. 10 trace",
		Headers: []string{"policy", "makespan_s", "mean_idle_ratio"}}
	for _, r := range AblationPartition(cfg) {
		t.Add(r.Policy, r.MakespanSec, fmt.Sprintf("%.3f", r.MeanIdle))
	}
	_, err := t.WriteTo(w)
	return err
}

func reportFig16(cfg Config, w io.Writer) error {
	t := &Table{Title: "Fig. 16 — strong scaling (paper: near-linear 10k→140k executors)",
		Headers: []string{"executors", "speedup", "ideal"}}
	for _, r := range Fig16Scalability(cfg) {
		t.Add(r.Executors, r.Speedup, r.Ideal)
	}
	_, err := t.WriteTo(w)
	return err
}
