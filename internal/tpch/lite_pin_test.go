package tpch

import (
	"fmt"
	"reflect"
	"testing"

	"swift/internal/engine"
)

// pinnedSinks are the exact Q3 and Q12 sink rows at the benchmark's
// configuration (GenerateLite(5, seed, 4), bench/tpch.go's constants),
// generated on the last commit whose Q12 and Q3 `top` stage ran on the row
// plane. They pin "same answers" across data-plane rewrites bit for bit —
// revenue sums included — where the Lite*Reference comparisons allow a
// tolerance.
var pinnedSinks = []struct {
	seed     int64
	priceCut float64 // the median order total, which is what bench/tpch.go passes
	q3, q12  []engine.Row
}{
	{1, 21754.050000000003, []engine.Row{
		{int64(41734), 61900.8, "1993-10-11"},
		{int64(34902), 59538.8, "1993-03-02"},
		{int64(49679), 59362.2, "1992-09-11"},
		{int64(8432), 58537.3, "1994-03-09"},
		{int64(61781), 58499.99999999999, "1992-04-19"},
		{int64(30745), 57244.799999999996, "1992-08-13"},
		{int64(37831), 57116.5, "1992-12-22"},
		{int64(9802), 56883.899999999994, "1993-12-21"},
		{int64(30979), 56604.299999999996, "1994-05-23"},
		{int64(29335), 56556.50000000001, "1993-07-07"},
	}, []engine.Row{
		{"F", int64(10696), int64(5586)},
		{"O", int64(10803), int64(5488)},
	}},
	{2, 21710.5, []engine.Row{
		{int64(57526), 59427.8, "1992-05-26"},
		{int64(42407), 58760.799999999996, "1994-12-25"},
		{int64(47716), 58693.5, "1994-08-13"},
		{int64(38081), 58004.3, "1994-09-12"},
		{int64(55777), 57110.299999999996, "1993-07-04"},
		{int64(49067), 56911.799999999996, "1993-01-05"},
		{int64(14868), 55969.1, "1995-01-14"},
		{int64(65624), 55543.700000000004, "1993-10-05"},
		{int64(21225), 55536.0, "1993-12-27"},
		{int64(33533), 55258.49999999999, "1992-02-20"},
	}, []engine.Row{
		{"F", int64(10750), int64(5574)},
		{"O", int64(10756), int64(5650)},
	}},
	{3, 21891.800000000003, []engine.Row{
		{int64(40077), 63454.100000000006, "1994-10-06"},
		{int64(68349), 61063.3, "1994-09-15"},
		{int64(13356), 59142.799999999996, "1993-02-24"},
		{int64(1707), 58965.6, "1995-01-16"},
		{int64(47801), 58827.299999999996, "1994-11-04"},
		{int64(60756), 57852.2, "1992-05-11"},
		{int64(7259), 57610.7, "1992-07-14"},
		{int64(38960), 56861.9, "1993-07-14"},
		{int64(12472), 56692.899999999994, "1993-01-23"},
		{int64(359), 56144.899999999994, "1993-01-24"},
	}, []engine.Row{
		{"F", int64(10653), int64(5551)},
		{"O", int64(10755), int64(5675)},
	}},
}

func TestLiteQ3Q12PinnedSinkRows(t *testing.T) {
	for _, pin := range pinnedSinks {
		// A subtest per seed, so each sf-5 database is released with its
		// engine before the next one is generated.
		t.Run(fmt.Sprintf("seed%d", pin.seed), func(t *testing.T) {
			e, _ := liteEngine(t, 5, pin.seed, 4)
			job, plans := LiteQ3(4, 3, 10, "BUILDING", "1995-03-15")
			if got, err := e.Run(job, plans); err != nil {
				t.Fatal(err)
			} else if !reflect.DeepEqual(got, pin.q3) {
				t.Errorf("Q3 sink rows\n got %#v\nwant %#v", got, pin.q3)
			}
			job, plans = LiteQ12(4, 3, "1994-01-01", "1995-01-01", pin.priceCut)
			if got, err := e.Run(job, plans); err != nil {
				t.Fatal(err)
			} else if !reflect.DeepEqual(got, pin.q12) {
				t.Errorf("Q12 sink rows\n got %#v\nwant %#v", got, pin.q12)
			}
		})
	}
}
