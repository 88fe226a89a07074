package exp

import (
	"fmt"

	"swift/internal/baseline"
	"swift/internal/cluster"
	"swift/internal/metrics"
	"swift/internal/tpch"
)

// Fig9aRow is one query of Fig. 9(a): TPC-H at 1 TB, Swift vs Spark.
type Fig9aRow struct {
	Query    string
	SparkSec float64
	SwiftSec float64
	Speedup  float64
}

// Fig9aResult is the full Fig. 9(a) experiment.
type Fig9aResult struct {
	Rows []Fig9aRow
	// TotalSpeedup is Σspark / Σswift, the paper's headline "total
	// speedup" (a row of Fidelity).
	TotalSpeedup float64
	// GeoMeanSpeedup aggregates per-query speedups geometrically.
	GeoMeanSpeedup float64
}

// Fig9aTPCH runs the 22 TPC-H queries on the 100-node cluster under Swift
// and under the Spark baseline.
func Fig9aTPCH(cfg Config) Fig9aResult {
	ccfg := cluster.Paper100()
	var out Fig9aResult
	var sparkTotal, swiftTotal float64
	var speedups []float64
	for i := 1; i <= 22; i++ {
		job := tpch.Query(i)
		swiftRes, _ := cfg.runOne(job, ccfg, baseline.Swift(), cfg.Seed)
		sparkRes, _ := cfg.runOne(tpch.Query(i), ccfg, baseline.Spark(), cfg.Seed)
		if swiftRes == nil || !swiftRes.Completed || sparkRes == nil || !sparkRes.Completed {
			panic(fmt.Sprintf("exp: Q%d did not complete", i))
		}
		row := Fig9aRow{
			Query:    fmt.Sprintf("Q%d", i),
			SparkSec: sparkRes.Duration(),
			SwiftSec: swiftRes.Duration(),
		}
		row.Speedup = row.SparkSec / row.SwiftSec
		out.Rows = append(out.Rows, row)
		sparkTotal += row.SparkSec
		swiftTotal += row.SwiftSec
		speedups = append(speedups, row.Speedup)
	}
	out.TotalSpeedup = sparkTotal / swiftTotal
	out.GeoMeanSpeedup = metrics.GeoMean(speedups)
	return out
}

// Fig9bRow is one (stage, system) cell of Fig. 9(b): the 4-phase execution
// time of a critical task of TPC-H Q9.
type Fig9bRow struct {
	Stage   string
	System  string // "Swift" or "Spark"
	Launch  float64
	Read    float64 // shuffle reading (table scanning for M-stages)
	Process float64
	Write   float64 // shuffle writing (adhoc sinking for R12)
}

// Fig9bStages are the critical stages the paper plots.
var Fig9bStages = []string{"M1", "J4", "M5", "J6", "J10", "R11", "R12"}

// Fig9bQ9Phases decomposes Q9's critical-stage tasks into the launching /
// shuffle-read / processing / shuffle-write phases for both systems.
func Fig9bQ9Phases(cfg Config) []Fig9bRow {
	ccfg := cluster.Paper100()
	var rows []Fig9bRow
	for _, sys := range []string{"Swift", "Spark"} {
		opts, err := baseline.System(sys)
		if err != nil {
			panic(err) // both names are known
		}
		jr, _ := cfg.runOne(tpch.Q9(), ccfg, opts, cfg.Seed)
		for _, st := range Fig9bStages {
			p := jr.Phases[st]
			if p == nil {
				continue
			}
			rows = append(rows, Fig9bRow{
				Stage: st, System: sys,
				Launch: p.Launch, Read: p.ShuffleRead,
				Process: p.Process, Write: p.ShuffleWrite,
			})
		}
	}
	return rows
}

// Table1Row is one row of Table I: Terasort, Spark vs Swift.
type Table1Row struct {
	Size     string
	M, N     int
	SparkSec float64
	SwiftSec float64
	Speedup  float64
}

// Table1Sizes are the published job sizes.
var Table1Sizes = []int{250, 500, 1000, 1500}

// Table1Terasort reproduces Table I: Terasort jobs of growing size on the
// 100-node cluster. The paper's speedups are rows of Fidelity.
func Table1Terasort(cfg Config) []Table1Row {
	ccfg := cluster.Paper100()
	var rows []Table1Row
	for _, s := range Table1Sizes {
		swiftRes, _ := cfg.runOne(tpch.Terasort(s, s), ccfg, baseline.Swift(), cfg.Seed)
		sparkRes, _ := cfg.runOne(tpch.Terasort(s, s), ccfg, baseline.Spark(), cfg.Seed)
		row := Table1Row{
			Size: fmt.Sprintf("%dx%d", s, s), M: s, N: s,
			SparkSec: sparkRes.Duration(),
			SwiftSec: swiftRes.Duration(),
		}
		row.Speedup = row.SparkSec / row.SwiftSec
		rows = append(rows, row)
	}
	return rows
}
