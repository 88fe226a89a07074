package exp

import (
	"fmt"
	"sort"
	"strings"

	"swift/internal/tpch"
)

// Table renders rows of columns with aligned widths, in the style of the
// paper's tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Note    string // a line printed under the rows
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

// String renders the table.
func (t *Table) String() string {
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
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	return b.String()
}

// Names lists the experiment identifiers RunAll runs.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// listReport is the report of a result that is a list: one table row of
// cells per element.
func listReport[T any](title string, headers []string, cells func(T) []any) func([]T) *Table {
	return func(rows []T) *Table {
		t := &Table{Title: title, Headers: headers}
		for _, r := range rows {
			t.Add(cells(r)...)
		}
		return t
	}
}

// def pairs an experiment's run with the report built from its result.
// The run's typed result goes back to RunAll too, for the fidelity rows.
func def[T any](run func(Config) T, report func(T) *Table) func(Config) (any, *Table) {
	return func(c Config) (any, *Table) {
		r := run(c)
		return r, report(r)
	}
}

// registry maps experiment ids to their runs.
var registry = map[string]func(Config) (any, *Table){
	"ablation-partition": def(AblationPartition, reportAblationPartition),
	"ablation-shuffle":   def(AblationAdaptiveShuffle, reportAblationShuffle),
	"fig3":               def(Fig3IdleRatio, reportFig3),
	"fig8":               def(Fig8TraceCharacteristics, reportFig8),
	"fig9a":              def(Fig9aTPCH, reportFig9a),
	"fig9b":              def(Fig9bQ9Phases, reportFig9b),
	"table1":             def(Table1Terasort, reportTable1),
	"fig10":              def(Fig10ExecutorTimeline, reportFig10),
	"fig11":              def(Fig11LatencyCDF, reportFig11),
	"fig12":              def(Fig12ShuffleModes, reportFig12),
	"fig13":              def(func(Config) []tpch.Q13Detail { return tpch.Q13Details() }, reportFig13),
	"fig14":              def(Fig14FaultInjection, reportFig14),
	"fig15":              def(Fig15TraceFailures, reportFig15),
	"fig16":              def(Fig16Scalability, reportFig16),
	"flowburst":          def(FlowBurst, reportFlowBurst),
	"fairshare":          def(FairShare, reportFairShare),
	"shufflerecovery":    def(ShuffleRecovery, reportShuffleRecovery),
}

var reportFig3 = listReport("Fig. 3 — IdleRatio under gang scheduling (paper: "+
	paperOf("fig3", "cluster 1 idle ratio %", "cluster 2 idle ratio %", "cluster 3 idle ratio %", "cluster 4 idle ratio %")+" %)", []string{"cluster", "idle_ratio_%"},
	func(r Fig3Row) []any { return []any{"#" + r.Cluster, r.IdleRatioPct} })

func reportFig8(s Fig8Stats) *Table {
	t := &Table{Title: fmt.Sprintf("Fig. 8 — trace characteristics (paper: mean %s s, %s%% <120 s, %s%% ≤80 tasks & ≤4 stages)",
		paperOf("fig8", "mean job runtime s"), paperOf("fig8", "jobs under 120 s %"), paperOf("fig8", "jobs with <=80 tasks %")),
		Headers: []string{"metric", "value"}}
	t.Add("jobs completed", s.Jobs)
	t.Add("mean runtime (s)", s.MeanRuntimeSec)
	t.Add("P(runtime<120s)", s.FracRuntimeUnder120)
	t.Add("P(tasks<=80)", s.FracTasksUnder80)
	t.Add("P(stages<=4)", s.FracStagesUnder4)
	return t
}

func reportFig9a(res Fig9aResult) *Table {
	t := &Table{Title: "Fig. 9(a) — TPC-H 1 TB, Swift vs Spark (paper total speedup: " + paperOf("fig9a", "total speedup vs Spark") + "x)",
		Headers: []string{"query", "spark_s", "swift_s", "speedup"}}
	for _, r := range res.Rows {
		t.Add(r.Query, r.SparkSec, r.SwiftSec, r.Speedup)
	}
	t.Add("TOTAL", "", "", res.TotalSpeedup)
	return t
}

var reportFig9b = listReport("Fig. 9(b) — Q9 phase breakdown (L/SR/P/SW seconds per critical task)", []string{"stage", "system", "launch", "read", "process", "write"},
	func(r Fig9bRow) []any { return []any{r.Stage, r.System, r.Launch, r.Read, r.Process, r.Write} })

var reportTable1 = listReport("Table I — Terasort (paper speedups: "+paperOf("table1")+")", []string{"job_size", "spark_s", "swift_s", "speedup"},
	func(r Table1Row) []any { return []any{r.Size, r.SparkSec, r.SwiftSec, r.Speedup} })

func reportFig10(res Fig10Result) *Table {
	t := &Table{Title: fmt.Sprintf("Fig. 10 — trace replay makespan (paper: Swift %sx, Bubble %sx over JetScope)",
		paperOf("fig10", "Swift/JetScope speedup"), paperOf("fig10", "Bubble/JetScope speedup")),
		Headers: []string{"system", "makespan_s", "speedup_vs_jetscope", "peak_executors"}}
	for _, sys := range Fig10Systems {
		peak := 0.0
		for _, p := range res.Series[sys] {
			if p.V > peak {
				peak = p.V
			}
		}
		t.Add(sys, res.Makespan[sys], res.Makespan["JetScope"]/res.Makespan[sys], peak)
	}
	return t
}

func reportFig11(res Fig11Result) *Table {
	t := &Table{Title: "Fig. 11 — job latency vs Swift (paper: " + paperOf("fig11", "JetScope jobs >2x Swift %") + "% of JetScope jobs >2x Swift)",
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
	return t
}

func reportFig12(cells []Fig12Cell) *Table {
	t := listReport("Fig. 12 — shuffle-mode ablation, normalized to Direct (paper winners: Direct/Remote/Local)", []string{"class", "mode", "normalized_time"},
		func(c Fig12Cell) []any {
			return []any{c.Class.String(), c.Mode.String(), fmt.Sprintf("%.3f", c.Normalized)}
		})(cells)
	best := Fig12Best(cells)
	t.Note = fmt.Sprintf("winners: small=%v medium=%v large=%v", best[0], best[1], best[2])
	return t
}

var reportFig13 = listReport("Fig. 13 — TPC-H Q13 job detail", []string{"stage", "tasks", "records/task", "input/task"},
	func(d tpch.Q13Detail) []any { return []any{d.Stage, d.Tasks, d.RecordsPerTask, d.InputSizePerTask} })

var reportFig14 = listReport("Fig. 14 — Q13 fault injection (paper: Swift "+paperOf("fig14", "max Swift slowdown %")+"% slowdown at every point)",
	[]string{"inject_at", "stage", "swift_slowdown_%", "restart_slowdown_%"},
	func(r Fig14Row) []any { return []any{r.InjectAtPct, r.Stage, r.SwiftSlowdownPct, r.RestartSlowdownPct} })

func reportFig15(res Fig15Result) *Table {
	t := &Table{Title: fmt.Sprintf("Fig. 15 — trace replay with failures (paper: restart +%s%%, Swift +%s%%)",
		paperOf("fig15", "job restart mean slowdown %"), paperOf("fig15", "Swift mean slowdown %")),
		Headers: []string{"policy", "mean_slowdown_%", "quartiles(normalized)"}}
	t.Add("fine-grained (Swift)", res.SwiftSlowdownPct, res.SwiftQuartiles.String())
	t.Add("job restart", res.RestartSlowdownPct, res.RestartQuartiles.String())
	return t
}

var reportFlowBurst = listReport("Sustained load — admission control under 1x/3x/10x arrival storms",
	[]string{"burst", "offered", "admitted", "queued", "shed", "wait_p50_s", "wait_p99_s", "max_queue", "max_inflight", "budget", "completed"},
	func(r FlowBurstRow) []any {
		return []any{r.Burst, r.Offered, r.Admitted, r.Queued, r.Shed, r.WaitP50, r.WaitP99, r.MaxQueueSeen, r.MaxInFlight, r.Budget, r.Completed}
	})

var reportFairShare = listReport("Fair share — three tenants (weights 2:1:1), tenant b bursting 1x/3x/10x",
	[]string{"burst", "policy", "contended_s", "share_a", "share_b", "share_c", "jain", "max_dev_%", "p99_a_s", "p99_b_s", "p99_c_s", "reclaims", "completed"},
	func(r FairShareRow) []any {
		return []any{r.Burst, r.Policy, r.ContendedSec, r.Shares[0], r.Shares[1], r.Shares[2], r.Jain, r.MaxDevPct, r.P99[0], r.P99[1], r.P99[2], r.Reclaims, r.Completed}
	})

var reportAblationShuffle = listReport("Ablation — adaptive shuffle vs each fixed mode on a mixed small/medium/large workload", []string{"policy", "mean_s"},
	func(r AblationShuffleRow) []any { return []any{r.Policy, r.MeanSec} })

var reportAblationPartition = listReport("Ablation — graphlet vs per-stage vs whole-job partitioning on the Fig. 10 trace", []string{"policy", "makespan_s", "mean_idle_ratio"},
	func(r AblationPartitionRow) []any {
		return []any{r.Policy, r.MakespanSec, fmt.Sprintf("%.3f", r.MeanIdle)}
	})

var reportFig16 = listReport("Fig. 16 — strong scaling (paper: near-linear 10k→140k executors)", []string{"executors", "speedup", "ideal"},
	func(r Fig16Row) []any { return []any{r.Executors, r.Speedup, r.Ideal} })
