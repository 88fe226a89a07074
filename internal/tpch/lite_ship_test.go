package tpch

import (
	"sync"
	"testing"

	"swift/internal/dag"
	"swift/internal/engine"
)

// countEdgeRows wraps every consumer stage of the job so each task first
// reads its inputs through InputBatchRuns, as the producers emitted them,
// and adds their rows to the edge's total, before the real body runs. The
// returned map, keyed "from>to", is complete once the job has run.
func countEdgeRows(job *dag.Job, plans engine.Plans) map[string]int {
	var mu sync.Mutex
	rows := map[string]int{}
	for _, stage := range job.StageNames() {
		in := job.In(stage)
		if len(in) == 0 {
			continue
		}
		body := plans[stage]
		plans[stage] = func(ctx *engine.TaskContext) error {
			for _, e := range in {
				runs, err := ctx.InputBatchRuns(e.From)
				if err != nil {
					return err
				}
				n := 0
				for _, r := range runs {
					n += r.Len
				}
				mu.Lock()
				rows[e.From+">"+e.To] += n
				mu.Unlock()
			}
			return body(ctx)
		}
	}
	return rows
}

// TestLitePlansShipOnlyWhatTheyUse: Q1's scan tasks ship partial
// aggregates, not lineitems; Q3's `line` stage ships exactly the lineitems
// of the qualifying orders, and its join tasks ship at most k rows each;
// Q12's `ord` ships every order, its `line` exactly the lineitems inside
// the window, and its join tasks one row per order status each.
func TestLitePlansShipOnlyWhatTheyUse(t *testing.T) {
	e, l := liteEngine(t, 0.3, 13, 4)
	const (
		scanTasks = 4
		joinTasks = 3
		k         = 10
		segment   = "BUILDING"
		date      = "1995-03-15"
	)

	job, plans := LiteQ1(scanTasks, 3, "1998-09-02")
	q1 := countEdgeRows(job, plans)
	if _, err := e.Run(job, plans); err != nil {
		t.Fatal(err)
	}
	if n := q1["scan>agg"]; n == 0 || n > 6*scanTasks {
		t.Errorf("Q1 scan→agg carried %d rows, want 1..%d (six groups per scan task)", n, 6*scanTasks)
	}

	job, plans = LiteQ3(scanTasks, joinTasks, k, segment, date)
	q3 := countEdgeRows(job, plans)
	rows, err := e.Run(job, plans)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != k {
		t.Fatalf("Q3 returned %d rows, want %d", len(rows), k)
	}
	ref := LiteQ3Reference(l, segment, date)
	lKey := liCols.MustCol("l_orderkey")
	lines := 0
	for _, part := range l.Lineitem.Partitions {
		for _, r := range part {
			if _, ok := ref[r[lKey].(int64)]; ok {
				lines++
			}
		}
	}
	if got := q3["line>join"]; got != lines {
		t.Errorf("Q3 line→join carried %d rows, want the %d lineitems of the %d qualifying orders", got, lines, len(ref))
	}
	if got := q3["ord>join"]; got != len(ref) {
		t.Errorf("Q3 ord→join carried %d rows, want the %d qualifying orders", got, len(ref))
	}
	if got := q3["join>top"]; got > k*joinTasks {
		t.Errorf("Q3 join→top carried %d rows, want at most %d (k per join task)", got, k*joinTasks)
	}

	const lo, hi = "1994-01-01", "1995-01-01"
	job, plans = LiteQ12(scanTasks, joinTasks, lo, hi, 20000)
	q12 := countEdgeRows(job, plans)
	if _, err := e.Run(job, plans); err != nil {
		t.Fatal(err)
	}
	lShip := liCols.MustCol("l_shipdate")
	inWindow := 0
	for _, part := range l.Lineitem.Partitions {
		for _, r := range part {
			if s := r[lShip].(string); s >= lo && s < hi {
				inWindow++
			}
		}
	}
	if got, want := q12["ord>join"], l.Orders.NumRows(); got != want {
		t.Errorf("Q12 ord→join carried %d rows, want every one of the %d orders", got, want)
	}
	if got := q12["line>join"]; got != inWindow {
		t.Errorf("Q12 line→join carried %d rows, want the %d lineitems shipped in [%s, %s)", got, inWindow, lo, hi)
	}
	if got := q12["join>agg"]; got == 0 || got > 2*joinTasks {
		t.Errorf("Q12 join→agg carried %d rows, want 1..%d (two order statuses per join task)", got, 2*joinTasks)
	}
}

// TestLiteQ3FitsOneGraphlet: the scans and the join stream into each other
// over pipeline edges, so they are one gang of 4+4+4+3 = 15 tasks — within
// DefaultConfig's 16 executors — and `top`, behind the barrier, is another.
func TestLiteQ3FitsOneGraphlet(t *testing.T) {
	job, _ := LiteQ3(4, 3, 10, "BUILDING", "1995-03-15")
	gs := mustPartition(t, job)
	if len(gs) != 2 {
		t.Fatalf("graphlets = %v, want 2", gs)
	}
	for _, s := range []string{"cust", "ord", "line", "join"} {
		if !gs[0].Contains(s) {
			t.Errorf("first graphlet %v lacks %s", gs[0], s)
		}
	}
	cfg := engine.DefaultConfig()
	if executors := cfg.Machines * cfg.ExecutorsPerMachine; gs[0].Tasks != 15 || gs[0].Tasks > executors {
		t.Errorf("first graphlet has %d tasks, want 15 (≤ %d executors)", gs[0].Tasks, executors)
	}
	if len(gs[1].Stages) != 1 || !gs[1].Contains("top") {
		t.Errorf("second graphlet = %v, want {top}", gs[1])
	}
}
