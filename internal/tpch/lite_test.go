package tpch

import (
	"math"
	"sort"
	"testing"

	"swift/internal/dag"
	"swift/internal/engine"
	"swift/internal/graphlet"
)

func liteEngine(t *testing.T, sf float64, seed int64, parts int) (*engine.Engine, *Lite) {
	t.Helper()
	e := engine.New(engine.DefaultConfig())
	t.Cleanup(e.Close)
	l := GenerateLite(sf, seed, parts)
	for _, tab := range l.Tables() {
		e.RegisterTable(tab)
	}
	return e, l
}

func TestGenerateLiteShape(t *testing.T) {
	l := GenerateLite(0.2, 1, 4)
	if l.Customer.NumRows() < 100 || l.Orders.NumRows() != l.Customer.NumRows()*10 {
		t.Errorf("sizes: cust=%d orders=%d", l.Customer.NumRows(), l.Orders.NumRows())
	}
	// 1–7 lineitems per order, average 4.
	ratio := float64(l.Lineitem.NumRows()) / float64(l.Orders.NumRows())
	if ratio < 3 || ratio > 5 {
		t.Errorf("lineitems per order = %.2f", ratio)
	}
	// Deterministic for a seed.
	l2 := GenerateLite(0.2, 1, 4)
	if l2.Lineitem.NumRows() != l.Lineitem.NumRows() {
		t.Error("generator not deterministic")
	}
	if GenerateLite(0.2, 2, 4).Lineitem.NumRows() == l.Lineitem.NumRows() {
		t.Log("different seeds coincided in size (possible but unusual)")
	}
	// Defensive defaults.
	if l3 := GenerateLite(0, 1, 0); l3.Customer.NumRows() == 0 {
		t.Error("degenerate parameters produced empty tables")
	}
	// Dates are ISO and within range.
	ship := LiteSchemas["lineitem"].MustCol("l_shipdate")
	for _, r := range l.Lineitem.Partitions[0][:10] {
		d := r[ship].(string)
		if len(d) != 10 || d < "1992-01-01" || d > "1998-12-31" {
			t.Fatalf("bad date %q", d)
		}
	}
}

func TestLiteQ1MatchesReference(t *testing.T) {
	e, l := liteEngine(t, 0.3, 7, 5)
	const cutoff = "1998-09-02"
	job, plans := LiteQ1(5, 3, cutoff)
	rows, err := e.Run(job, plans)
	if err != nil {
		t.Fatal(err)
	}
	want := LiteQ1Reference(l, cutoff)
	if len(rows) != len(want) {
		t.Fatalf("groups = %d, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		k := [2]string{r[0].(string), r[1].(string)}
		w, ok := want[k]
		if !ok {
			t.Fatalf("unexpected group %v", k)
		}
		got := [4]float64{r[2].(float64), r[3].(float64), r[4].(float64), float64(r[5].(int64))}
		for i := range got {
			if math.Abs(got[i]-w[i]) > 1e-6*math.Max(1, math.Abs(w[i])) {
				t.Errorf("group %v agg %d = %.4f, want %.4f", k, i, got[i], w[i])
			}
		}
	}
}

func TestLiteQ6MatchesReference(t *testing.T) {
	e, l := liteEngine(t, 0.3, 11, 4)
	lo, hi := "1994-01-01", "1995-01-01"
	job, plans := LiteQ6(4, lo, hi)
	rows, err := e.Run(job, plans)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	got := rows[0][0].(float64)
	want := LiteQ6Reference(l, lo, hi)
	if math.Abs(got-want) > 1e-6*math.Max(1, want) {
		t.Errorf("revenue = %.4f, want %.4f", got, want)
	}
	if want == 0 {
		t.Error("reference revenue is zero — generator selectivity broken")
	}
}

func TestLiteQ3MatchesReference(t *testing.T) {
	e, l := liteEngine(t, 0.3, 13, 4)
	const (
		segment = "BUILDING"
		date    = "1995-03-15"
		k       = 10
	)
	job, plans := LiteQ3(4, 3, k, segment, date)
	rows, err := e.Run(job, plans)
	if err != nil {
		t.Fatal(err)
	}
	ref := LiteQ3Reference(l, segment, date)
	if len(ref) < k {
		t.Fatalf("reference has only %d qualifying orders; enlarge sf", len(ref))
	}
	type ord struct {
		key int64
		rev float64
	}
	var expect []ord
	for key, rev := range ref {
		expect = append(expect, ord{key, rev})
	}
	sort.Slice(expect, func(i, j int) bool {
		if expect[i].rev != expect[j].rev {
			return expect[i].rev > expect[j].rev
		}
		return expect[i].key < expect[j].key
	})
	if len(rows) != k {
		t.Fatalf("top-k returned %d rows", len(rows))
	}
	for i, r := range rows {
		if math.Abs(r[1].(float64)-expect[i].rev) > 1e-6 {
			t.Errorf("rank %d revenue = %.4f, want %.4f (order %d)", i, r[1], expect[i].rev, expect[i].key)
		}
	}
}

// TestLiteEmptyIntermediates: a predicate nothing satisfies leaves every
// downstream shuffle edge empty, and the job must still complete — with no
// rows — instead of crashing a kernel on a zero-row batch.
func TestLiteEmptyIntermediates(t *testing.T) {
	e, _ := liteEngine(t, 0.3, 13, 4)
	job, plans := LiteQ3(4, 3, 10, "NO-SUCH-SEGMENT", "1995-03-15")
	if rows, err := e.Run(job, plans); err != nil || len(rows) != 0 {
		t.Errorf("Q3 with an unmatched segment = %d rows, err %v; want 0, nil", len(rows), err)
	}
	job, plans = LiteQ12(4, 3, "1994-01-01", "1994-01-01", 1)
	if rows, err := e.Run(job, plans); err != nil || len(rows) != 0 {
		t.Errorf("Q12 with an empty window = %d rows, err %v; want 0, nil", len(rows), err)
	}
}

func TestLiteQ1SurvivesInjectedFailure(t *testing.T) {
	e, l := liteEngine(t, 0.5, 17, 6)
	const cutoff = "1998-09-02"
	job, plans := LiteQ1(6, 3, cutoff)
	wait, err := e.Submit(job, plans)
	if err != nil {
		t.Fatal(err)
	}
	// Try to kill an agg task while the job is in flight; timing-
	// dependent, so success of the kill is not required for the test.
	for i := 0; i < 200; i++ {
		if e.FailTask(job.ID, "agg") {
			break
		}
	}
	rows, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	want := LiteQ1Reference(l, cutoff)
	if len(rows) != len(want) {
		t.Fatalf("groups = %d, want %d", len(rows), len(want))
	}
}

// mustPartition partitions a job for graphlet-structure assertions.
func mustPartition(t *testing.T, j *dag.Job) []*graphlet.Graphlet {
	t.Helper()
	gs, err := graphlet.Partition(j)
	if err != nil {
		t.Fatal(err)
	}
	return gs
}
