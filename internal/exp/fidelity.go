package exp

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"swift/internal/shuffle"
	"swift/internal/tpch"
)

// Band is the accepted range of a row, ends included: every value seeds
// 1–3 give today, rounded outward. It comes from measurements, never from
// the paper, and may be tightened but never widened.
type Band struct{ Lo, Hi float64 }

func (b Band) String() string { return num(b.Lo, -1) + ".." + num(b.Hi, -1) }

// num prints v with digits significant digits, or all (-1) of them, and
// a whole number in full: Fig. 13's 3012048 must read back exactly.
func num(v float64, digits int) string {
	if v == math.Trunc(v) {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', digits, 64)
}

// FidelityRow is one claim of the paper's evaluation, held to the
// experiment that reproduces it.
type FidelityRow struct {
	Exp, Metric string                   // experiment id, what is measured
	Paper       string                   // the paper's value, or a bound such as "<10"
	Full        Band                     // the band at the paper's scale
	Value       func(result any) float64 // reads the experiment's result
}

// of adapts a typed extractor to FidelityRow.Value.
func of[T any](f func(T) float64) func(any) float64 {
	return func(r any) float64 { return f(r.(T)) }
}

// Fidelity is the paper-vs-measured table: one row per paper claim, in
// paper order. The report titles, PaperOrder, the fidelity test and
// EXPERIMENTS.md all read it. Fig. 9(b)'s shuffle ratio is the paper's
// (137.8 + 133.9) / (8.92 + 9.61) s. Where the paper gives no number,
// Paper is this table's reading of its words or plots: "negligible" is
// under 1 s, "near-linear" is over 0.8 of ideal, Fig. 8's fractions are
// over every job of the trace, and a restart at t=100 redoes over half
// of the job.
var Fidelity = []FidelityRow{
	{"fig3", "clusters", "4", Band{4, 4}, of(func(rows []Fig3Row) float64 { return float64(len(rows)) })},
	{"fig3", "cluster 1 idle ratio %", "3.81", Band{16.4, 18.4}, of(func(rows []Fig3Row) float64 { return rows[0].IdleRatioPct })},
	{"fig3", "cluster 2 idle ratio %", "13.15", Band{16.8, 18}, of(func(rows []Fig3Row) float64 { return rows[1].IdleRatioPct })},
	{"fig3", "cluster 3 idle ratio %", "14.45", Band{17.2, 18.2}, of(func(rows []Fig3Row) float64 { return rows[2].IdleRatioPct })},
	{"fig3", "cluster 4 idle ratio %", "14.92", Band{17.6, 18.1}, of(func(rows []Fig3Row) float64 { return rows[3].IdleRatioPct })},
	{"fig8", "trace jobs completed %", "100", Band{100, 100}, of(func(s Fig8Stats) float64 { return 100 * float64(s.Jobs) / float64(s.Traced) })},
	{"fig8", "mean job runtime s", "30", Band{27.7, 30}, of(func(s Fig8Stats) float64 { return s.MeanRuntimeSec })},
	{"fig8", "jobs under 120 s %", ">90", Band{96.2, 97.1}, of(func(s Fig8Stats) float64 { return 100 * s.FracRuntimeUnder120 })},
	{"fig8", "jobs with <=80 tasks %", ">80", Band{81.3, 82.7}, of(func(s Fig8Stats) float64 { return 100 * s.FracTasksUnder80 })},
	{"fig8", "jobs with <=4 stages %", ">80", Band{81.4, 83.2}, of(func(s Fig8Stats) float64 { return 100 * s.FracStagesUnder4 })},
	{"fig9a", "total speedup vs Spark", "2.11", Band{2.1, 2.11}, of(func(r Fig9aResult) float64 { return r.TotalSpeedup })},
	{"fig9a", "lowest per-query speedup", ">1", Band{1.53, 1.55}, of(func(r Fig9aResult) float64 {
		return fold(func(q Fig9aRow) float64 { return q.Speedup }, math.Min)(r.Rows)
	})},
	{"fig9b", "Spark launch s, all stages", ">71", Band{38.8, 38.9}, fig9b("Spark", false)},
	{"fig9b", "Swift launch s, all stages", "<1", Band{0.38, 0.39}, fig9b("Swift", false)},
	{"fig9b", "Spark/Swift shuffle read+write", "14.66", Band{10.5, 10.6}, of(func(rows []Fig9bRow) float64 { return fig9b("Spark", true)(rows) / fig9b("Swift", true)(rows) })},
	{"table1", "speedup 250x250", "3.07", Band{3.98, 3.99}, table1(250)},
	{"table1", "speedup 500x500", "3.96", Band{4.49, 4.5}, table1(500)},
	{"table1", "speedup 1000x1000", "7.06", Band{7.56, 7.57}, table1(1000)},
	{"table1", "speedup 1500x1500", "14.18", Band{15.2, 15.3}, table1(1500)},
	{"fig10", "Swift/JetScope speedup", "2.44", Band{1.59, 1.67}, of(func(r Fig10Result) float64 { return r.Makespan["JetScope"] / r.Makespan["Swift"] })},
	{"fig10", "Bubble/JetScope speedup", "1.98", Band{1.55, 1.59}, of(func(r Fig10Result) float64 { return r.Makespan["JetScope"] / r.Makespan["Bubble"] })},
	{"fig10", "Swift/Bubble speedup", ">1", Band{1.005, 1.055}, of(func(r Fig10Result) float64 { return r.Makespan["Bubble"] / r.Makespan["Swift"] })},
	{"fig11", "mean Bubble/Swift latency", "1.23", Band{1.06, 1.28}, of(func(r Fig11Result) float64 { return r.MeanBubbleRatio })},
	{"fig11", "JetScope jobs >2x Swift %", ">60", Band{10.2, 16.3}, of(func(r Fig11Result) float64 { return 100 * r.FracJetScopeOver2x })},
	{"fig12", "cells", "9", Band{9, 9}, of(func(cells []Fig12Cell) float64 { return float64(len(cells)) })},
	{"fig12", "Direct cells normalized to 1", "3", Band{3, 3}, of(func(cells []Fig12Cell) float64 {
		return float64(len(slices.DeleteFunc(slices.Clone(cells), func(c Fig12Cell) bool { return c.Mode != shuffle.Direct || c.Normalized != 1 })))
	})},
	{"fig12", "small: runner-up over Direct %", ">0", Band{3.37, 3.38}, fig12(shuffle.SmallShuffle, shuffle.Direct, shuffle.Local, shuffle.Remote)},
	{"fig12", "small: Local over Direct %", "4", Band{9.5, 9.51}, fig12(shuffle.SmallShuffle, shuffle.Direct, shuffle.Local)},
	{"fig12", "small: Remote over Direct %", "3", Band{3.37, 3.38}, fig12(shuffle.SmallShuffle, shuffle.Direct, shuffle.Remote)},
	{"fig12", "medium: runner-up over Remote %", ">0", Band{5.12, 5.13}, fig12(shuffle.MediumShuffle, shuffle.Remote, shuffle.Direct, shuffle.Local)},
	{"fig12", "medium: Direct over Remote %", "25", Band{14.7, 14.8}, fig12(shuffle.MediumShuffle, shuffle.Remote, shuffle.Direct)},
	{"fig12", "medium: Local over Remote %", "3.8", Band{5.12, 5.13}, fig12(shuffle.MediumShuffle, shuffle.Remote, shuffle.Local)},
	{"fig12", "large: runner-up over Local %", ">0", Band{16.7, 16.8}, fig12(shuffle.LargeShuffle, shuffle.Local, shuffle.Direct, shuffle.Remote)},
	{"fig12", "large: Direct over Local %", "108.3", Band{50, 50.1}, fig12(shuffle.LargeShuffle, shuffle.Local, shuffle.Direct)},
	{"fig12", "large: Remote over Local %", "47.9", Band{16.7, 16.8}, fig12(shuffle.LargeShuffle, shuffle.Local, shuffle.Remote)},
	{"fig13", "stages", "6", Band{6, 6}, of(func(d []tpch.Q13Detail) float64 { return float64(len(d)) })},
	{"fig13", "M1 tasks", "498", Band{498, 498}, q13M1(func(m1 tpch.Q13Detail) int64 { return int64(m1.Tasks) })},
	{"fig13", "M1 records per task", "3012048", Band{3012048, 3012048}, q13M1(func(m1 tpch.Q13Detail) int64 { return m1.RecordsPerTask })},
	{"fig14", "injection points", "5", Band{5, 5}, of(func(rows []Fig14Row) float64 { return float64(len(rows)) })},
	{"fig14", "Swift slowdown at t=20 (M2) %", "0", Band{0, 0}, of(func(rows []Fig14Row) float64 { return rows[0].SwiftSlowdownPct })},
	{"fig14", "max Swift slowdown %", "<10", Band{11.6, 12.6}, fold(func(r Fig14Row) float64 { return r.SwiftSlowdownPct }, math.Max)},
	{"fig14", "min Swift slowdown %", "0", Band{0, 0}, fold(func(r Fig14Row) float64 { return r.SwiftSlowdownPct }, math.Min)},
	{"fig14", "restart slowdown at t=100 (R6) %", ">50", Band{98, 98.6}, of(func(rows []Fig14Row) float64 { return rows[4].RestartSlowdownPct })},
	{"fig14", "min restart minus Swift, points", ">0", Band{19.2, 20.9}, fold(func(r Fig14Row) float64 { return r.RestartSlowdownPct - r.SwiftSlowdownPct }, math.Min)},
	{"fig15", "job restart mean slowdown %", "45", Band{28.6, 46.5}, of(func(r Fig15Result) float64 { return r.RestartSlowdownPct })},
	{"fig15", "Swift mean slowdown %", "5", Band{2.49, 3.42}, of(func(r Fig15Result) float64 { return r.SwiftSlowdownPct })},
	{"fig16", "speedup at 1x executors", "1", Band{1, 1}, of(func(r []Fig16Row) float64 { return r[0].Speedup })},
	{"fig16", "speedup/ideal at 2x executors", ">0.8", Band{0.985, 0.989}, of(func(r []Fig16Row) float64 { return r[1].Speedup / r[1].Ideal })},
	{"fig16", "speedup/ideal at 4x executors", ">0.8", Band{0.955, 0.966}, of(func(r []Fig16Row) float64 { return r[2].Speedup / r[2].Ideal })},
	{"fig16", "speedup/ideal at 8x executors", ">0.8", Band{0.906, 0.928}, of(func(r []Fig16Row) float64 { return r[3].Speedup / r[3].Ideal })},
	{"fig16", "speedup/ideal at 14x executors", ">0.8", Band{0.842, 0.871}, of(func(r []Fig16Row) float64 { return r[4].Speedup / r[4].Ideal })},
}

// fig9b sums one system's launch time, or with readWrite its shuffle time
// over the stages that read a shuffle (M1 and M5 scan tables).
func fig9b(system string, readWrite bool) func(any) float64 {
	return of(func(rows []Fig9bRow) float64 {
		sum := 0.0
		for _, r := range rows {
			switch {
			case r.System != system:
			case !readWrite:
				sum += r.Launch
			case r.Stage != "M1" && r.Stage != "M5":
				sum += r.Read + r.Write
			}
		}
		return sum
	})
}

// q13M1 reads Fig. 13's first stage, which must be M1: any other reads NaN,
// which no band holds.
func q13M1(f func(tpch.Q13Detail) int64) func(any) float64 {
	return of(func(d []tpch.Q13Detail) float64 {
		if d[0].Stage != "M1" {
			return math.NaN()
		}
		return float64(f(d[0]))
	})
}

func table1(size int) func(any) float64 {
	return of(func(rows []Table1Row) float64 {
		return rows[slices.IndexFunc(rows, func(r Table1Row) bool { return r.M == size })].Speedup
	})
}

// fig12 is how much slower than the paper's winner of class the fastest of
// modes ran, in percent.
func fig12(class shuffle.SizeClass, winner shuffle.Mode, modes ...shuffle.Mode) func(any) float64 {
	return of(func(cells []Fig12Cell) float64 {
		at := func(m shuffle.Mode) float64 {
			return cells[slices.IndexFunc(cells, func(c Fig12Cell) bool { return c.Class == class && c.Mode == m })].Normalized
		}
		fastest := math.Inf(1)
		for _, m := range modes {
			fastest = math.Min(fastest, at(m))
		}
		return (fastest/at(winner) - 1) * 100
	})
}

// fold reduces f over a result's rows with pick.
func fold[T any](f func(T) float64, pick func(a, b float64) float64) func(any) float64 {
	return of(func(rows []T) float64 {
		v := f(rows[0])
		for _, r := range rows[1:] {
			v = pick(v, f(r))
		}
		return v
	})
}

// Measured is one fidelity row evaluated on one run.
type Measured struct {
	Row   *FidelityRow
	Band  Band // the band the value is held to: the row's Full band, or a test's own
	Value float64
}

// InBand reports whether the value lies in the row's band.
func (m Measured) InBand() bool { return m.Band.Lo <= m.Value && m.Value <= m.Band.Hi }

// Mark is "OUT" when the value left its band, "gap" when the band misses
// the paper's value or breaks its bound, and "ok" otherwise.
func (m Measured) Mark() string {
	p, b := m.Row.Paper, m.Band
	v, _ := strconv.ParseFloat(strings.TrimLeft(p, "<>"), 64)
	switch {
	case !m.InBand():
		return "OUT"
	case p[0] == '>' && b.Lo <= v, p[0] == '<' && b.Hi >= v, p[0] != '>' && p[0] != '<' && (v < b.Lo || v > b.Hi):
		return "gap"
	}
	return "ok"
}

// measure evaluates the rows of experiment name on its result.
func measure(name string, result any) (ms []Measured) {
	for i, r := range Fidelity {
		if r.Exp == name {
			ms = append(ms, Measured{&Fidelity[i], r.Full, r.Value(result)})
		}
	}
	return ms
}

// PaperOrder lists the experiments Fidelity holds, in paper order.
func PaperOrder() (ids []string) {
	for _, r := range Fidelity {
		if !slices.Contains(ids, r.Exp) {
			ids = append(ids, r.Exp)
		}
	}
	return ids
}

// paperOf is the paper's value of experiment id's named rows, or of all
// its rows when none is named, joined by " / ".
func paperOf(id string, metrics ...string) string {
	var vs []string
	for _, r := range Fidelity {
		if r.Exp == id && (metrics == nil || slices.Contains(metrics, r.Metric)) {
			vs = append(vs, r.Paper)
		}
	}
	return strings.Join(vs, " / ")
}

// FidelityTable is the fidelity table of a run's measured rows.
func FidelityTable(cfg Config, ms []Measured) *Table {
	t := &Table{Title: fmt.Sprintf("Fidelity — paper vs measured, full size, seed %d (bands hold seeds 1–3)", cfg.Seed),
		Headers: []string{"exp", "metric", "paper", "band", "measured", "mark"}}
	for _, m := range ms {
		t.Add(m.Row.Exp, m.Row.Metric, m.Row.Paper, m.Band, num(m.Value, 4), m.Mark())
	}
	return t
}
