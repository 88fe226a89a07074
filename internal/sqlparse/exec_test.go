package sqlparse

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"swift/internal/engine"
	"swift/internal/tpch"
)

func execEngine(t *testing.T) (*engine.Engine, *tpch.Lite) {
	t.Helper()
	e := engine.New(engine.DefaultConfig())
	t.Cleanup(e.Close)
	l := tpch.GenerateLite(0.2, 11, 4)
	for _, tab := range l.Tables() {
		e.RegisterTable(tab)
	}
	return e, l
}

func TestCompileGroupByMatchesReference(t *testing.T) {
	e, l := execEngine(t)
	src := `SELECT l_returnflag, l_linestatus, sum(l_quantity) AS qty, count(*) AS n
	        FROM lineitem GROUP BY l_returnflag, l_linestatus
	        ORDER BY l_returnflag, l_linestatus`
	rows, out, err := CompileAndRun(e, "q-group", src, tpch.LiteSchemas["lineitem"], CompileOptions{ScanTasks: 4, AggTasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || out[2] != "qty" || out[3] != "n" {
		t.Fatalf("out schema = %v", out)
	}

	// Row-computed reference over the raw partitions.
	sch := tpch.LiteSchemas["lineitem"]
	flag, status, qty := sch.MustCol("l_returnflag"), sch.MustCol("l_linestatus"), sch.MustCol("l_quantity")
	type acc struct {
		qty float64
		n   int64
	}
	want := map[[2]string]acc{}
	for _, part := range l.Lineitem.Partitions {
		for _, r := range part {
			k := [2]string{r[flag].(string), r[status].(string)}
			a := want[k]
			a.qty += r[qty].(float64)
			a.n++
			want[k] = a
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("groups = %d, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		k := [2]string{r[0].(string), r[1].(string)}
		w, ok := want[k]
		if !ok {
			t.Fatalf("unexpected group %v", k)
		}
		if math.Abs(r[2].(float64)-w.qty) > 1e-6*w.qty || r[3].(int64) != w.n {
			t.Errorf("group %v = (%v, %v), want (%v, %v)", k, r[2], r[3], w.qty, w.n)
		}
		// ORDER BY (flag, status) ascending.
		if i > 0 {
			prev := rows[i-1]
			pk := [2]string{prev[0].(string), prev[1].(string)}
			if pk[0] > k[0] || (pk[0] == k[0] && pk[1] > k[1]) {
				t.Errorf("rows out of order: %v before %v", pk, k)
			}
		}
	}
}

func TestCompileGlobalAggregate(t *testing.T) {
	e, l := execEngine(t)
	rows, _, err := CompileAndRun(e, "q-global",
		`SELECT sum(l_extendedprice), count(*), min(l_shipdate), max(l_shipdate) FROM lineitem`,
		tpch.LiteSchemas["lineitem"], CompileOptions{ScanTasks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	sch := tpch.LiteSchemas["lineitem"]
	price, ship := sch.MustCol("l_extendedprice"), sch.MustCol("l_shipdate")
	var sum float64
	var n int64
	lo, hi := "~", ""
	for _, part := range l.Lineitem.Partitions {
		for _, r := range part {
			sum += r[price].(float64)
			n++
			if d := r[ship].(string); d < lo {
				lo = d
			} else if d > hi {
				hi = d
			}
		}
	}
	r := rows[0]
	if math.Abs(r[0].(float64)-sum) > 1e-6*sum || r[1].(int64) != n || r[2].(string) != lo || r[3].(string) != hi {
		t.Errorf("got %v, want (%v, %v, %q, %q)", r, sum, n, lo, hi)
	}
}

func TestCompileProjectionOrderLimit(t *testing.T) {
	e, l := execEngine(t)
	rows, _, err := CompileAndRun(e, "q-top",
		`SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 5`,
		tpch.LiteSchemas["orders"], CompileOptions{ScanTasks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	sch := tpch.LiteSchemas["orders"]
	price := sch.MustCol("o_totalprice")
	var all []float64
	for _, part := range l.Orders.Partitions {
		for _, r := range part {
			all = append(all, r[price].(float64))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	for i, r := range rows {
		if got := r[1].(float64); got != all[i] {
			t.Errorf("rank %d price = %v, want %v", i, got, all[i])
		}
		if i > 0 && rows[i-1][1].(float64) < r[1].(float64) {
			t.Errorf("not descending at %d", i)
		}
	}
}

// TestCompileScanWiderThanTable: the default four scan tasks over a
// two-partition table leave two tasks with nothing to read; they must emit
// empty partitions, not fail the job.
func TestCompileScanWiderThanTable(t *testing.T) {
	e := engine.New(engine.DefaultConfig())
	defer e.Close()
	schema := engine.Schema{"k", "v"}
	e.RegisterTable(engine.NewTable("t", schema, []engine.Row{
		{"a", int64(1)}, {"b", int64(2)}, {"a", int64(3)}, {"b", int64(4)}, {"a", int64(5)},
	}, 2))
	rows, _, err := CompileAndRun(e, "q", "select k, sum(v) from t group by k order by k", schema, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []engine.Row{{"a", int64(9)}, {"b", int64(6)}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %v, want %v", rows, want)
	}
}

func TestCompileDistinctViaGroupBy(t *testing.T) {
	e, _ := execEngine(t)
	rows, _, err := CompileAndRun(e, "q-distinct",
		`SELECT c_mktsegment FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment`,
		tpch.LiteSchemas["customer"], CompileOptions{ScanTasks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) > 5 {
		t.Fatalf("segments = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].(string) >= rows[i][0].(string) {
			t.Errorf("segments not strictly ascending: %v", rows)
		}
	}
}

func TestCompileRejectsUnsupported(t *testing.T) {
	for _, src := range []string{
		`SELECT a FROM t WHERE a > 1`,
		`SELECT a FROM t JOIN u ON t.a = u.a`,
		`SELECT nosuch FROM t`,
		`SELECT a, sum(b) FROM t`,
		`SELECT sum(b) FROM t ORDER BY nope`,
		`SELECT min(*) FROM t`,
		`SELECT a, b FROM t GROUP BY a`,
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Compile("q", stmt, engine.Schema{"a", "b"}, CompileOptions{}); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}
