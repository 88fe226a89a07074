package tpch

import (
	"fmt"
	"testing"

	"swift/internal/dag"
	"swift/internal/engine"
)

// BenchmarkTPCHLiteEngine runs the TPC-H-lite queries end to end on the
// real engine — scan, shuffle, join, aggregate, top-k with the controller
// scheduling every task — so data-plane regressions show up in a whole-
// query number, not just the operator microbenchmarks. ReportAllocs makes
// the per-query allocation budget part of the bench trajectory.
func BenchmarkTPCHLiteEngine(b *testing.B) {
	e := engine.New(engine.DefaultConfig())
	defer e.Close()
	l := GenerateLite(0.3, 7, 4)
	for _, tab := range l.Tables() {
		e.RegisterTable(tab)
	}
	rows := float64(l.Lineitem.NumRows())
	// The controller rejects duplicate job ids and the harness re-runs
	// each sub-benchmark while ramping b.N, so ids come from a counter
	// that never resets.
	jobSeq := 0
	nextID := func(q string) string {
		jobSeq++
		return fmt.Sprintf("bench-%s-%d", q, jobSeq)
	}

	for _, q := range []struct {
		name  string
		build func() (*dag.Job, engine.Plans)
	}{
		{"Q1", func() (*dag.Job, engine.Plans) { return LiteQ1(4, 3, "1998-09-02") }},
		{"Q6", func() (*dag.Job, engine.Plans) { return LiteQ6(4, "1994-01-01", "1995-01-01") }},
		{"Q3", func() (*dag.Job, engine.Plans) { return LiteQ3(4, 3, 10, "BUILDING", "1995-03-15") }},
		{"Q12", func() (*dag.Job, engine.Plans) { return LiteQ12(4, 3, "1994-01-01", "1995-01-01", 21750) }},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				job, plans := q.build()
				job.ID = nextID(q.name)
				if _, err := e.Run(job, plans); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "lineitems/s")
		})
	}
}
