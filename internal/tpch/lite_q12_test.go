package tpch

import (
	"fmt"
	"sort"
	"testing"
)

// TestLiteQ12MatchesReference runs Q12 over a year's window, an empty one
// (lo == hi) and one holding every date GenerateLite draws, each on 1, 3, 4
// and 7 join tasks, so the semi-join is checked with no qualifying lineitem,
// with every order qualifying, and with keySets of every width.
func TestLiteQ12MatchesReference(t *testing.T) {
	e, l := liteEngine(t, 0.3, 23, 4)
	// Split at the median order total so both priority classes are
	// populated regardless of generator parameters.
	var totals []float64
	col := orCols.MustCol("o_totalprice")
	for _, part := range l.Orders.Partitions {
		for _, r := range part {
			totals = append(totals, r[col].(float64))
		}
	}
	sort.Float64s(totals)
	priceCut := totals[len(totals)/2]
	for _, win := range []struct{ name, lo, hi string }{
		{"year", "1994-01-01", "1995-01-01"},
		{"empty", "1994-01-01", "1994-01-01"},
		{"every", "1992-01-01", "1999-01-01"},
	} {
		for _, joins := range []int{1, 3, 4, 7} {
			t.Run(fmt.Sprintf("%s/joins%d", win.name, joins), func(t *testing.T) {
				job, plans := LiteQ12(4, joins, win.lo, win.hi, priceCut)
				job.ID = fmt.Sprintf("lite-q12-%s-%d", win.name, joins)
				rows, err := e.Run(job, plans)
				if err != nil {
					t.Fatal(err)
				}
				want := LiteQ12Reference(l, win.lo, win.hi, priceCut)
				if len(rows) != len(want) {
					t.Fatalf("groups = %d, want %d", len(rows), len(want))
				}
				var totalHigh, totalLow int64
				for _, r := range rows {
					status := r[0].(string)
					w, ok := want[status]
					if !ok {
						t.Fatalf("unexpected status %q", status)
					}
					if r[1].(int64) != w[0] || r[2].(int64) != w[1] {
						t.Errorf("status %q = (%d,%d), want (%d,%d)", status, r[1], r[2], w[0], w[1])
					}
					totalHigh += r[1].(int64)
					totalLow += r[2].(int64)
				}
				switch {
				case win.name == "empty" && len(rows) != 0:
					t.Errorf("empty window returned %v", rows)
				case win.name == "every" && totalHigh+totalLow != int64(l.Orders.NumRows()):
					t.Errorf("window over every date counted %d orders, want all %d", totalHigh+totalLow, l.Orders.NumRows())
				case win.name != "empty" && (totalHigh == 0 || totalLow == 0):
					t.Error("degenerate split — price cut not discriminating")
				}
			})
		}
	}
}

func TestLiteQ12PartitionsIntoTwoGraphlets(t *testing.T) {
	// The join stage streams (pipeline in-edges) while the aggregate is
	// fed over a barrier: scans+join form one graphlet, agg another.
	job, _ := LiteQ12(4, 3, "1994-01-01", "1995-01-01", 1)
	gs := mustPartition(t, job)
	if len(gs) != 2 {
		t.Fatalf("graphlets = %d, want 2", len(gs))
	}
	if !gs[0].Contains("join") || !gs[1].Contains("agg") {
		t.Errorf("graphlet membership wrong: %v", gs)
	}
}
