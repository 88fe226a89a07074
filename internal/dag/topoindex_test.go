package dag_test

import (
	"testing"

	"swift/internal/tpch"
)

// Every stage of the paper's Q9 plan sits at its TopoOrder position.
func TestTopoIndexMatchesTopoOrder(t *testing.T) {
	j := tpch.Q9()
	order, err := j.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range order {
		if got := j.TopoIndex(name); got != i {
			t.Errorf("TopoIndex(%s) = %d, want %d", name, got, i)
		}
	}
}

// BenchmarkTopoIndex resolves every stage of Q9 by name, the lookup the
// controller and the simulator make for a task named by its stage.
func BenchmarkTopoIndex(b *testing.B) {
	j := tpch.Q9()
	names, err := j.TopoOrder()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		for _, name := range names {
			if j.TopoIndex(name) < 0 {
				b.Fatal(name)
			}
		}
	}
}
