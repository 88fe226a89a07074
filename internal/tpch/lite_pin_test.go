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

// pinnedQ1Q6 are the exact Q1 and Q6 sink rows at the same configuration
// (bench/tpch.go's q1Cutoff and range). Q6's, and Q1's keys, row order,
// quantity and price sums and counts, date from the commit whose Q1 scan
// gathered its rows and computed the discounted price before the shuffle;
// those sums are integer-valued, so any fold order gives them exactly. The
// 18 discounted-price sums were re-pinned when each Q1 scan task began to
// aggregate its partition before the shuffle: a sum of four partial sums
// rounds differently from one running sum, and 16 of the 18 moved closer
// to the exact sum of the same float64 products (the EXPERIMENTS.md of
// commit a602661 has the table). Those few partials no longer pin the
// shuffle's row order; Q3's revenue sums do — a round-robin partitioned
// order of three or more lineitems sums rows from different `line` tasks,
// so a reordered concatenation of the producer runs fails it.
var pinnedQ1Q6 = []struct {
	seed   int64
	q1, q6 []engine.Row
}{
	{1, []engine.Row{
		{"A", "F", 1.226715e+06, 2.8361644e+08, 2.6939850600000024e+08, int64(48048)},
		{"A", "O", 1.212427e+06, 2.7975705e+08, 2.6571919430000013e+08, int64(47538)},
		{"R", "O", 1.218079e+06, 2.812991e+08, 2.672201472000003e+08, int64(47680)},
		{"N", "F", 1.212977e+06, 2.8018399e+08, 2.6620548939999998e+08, int64(47652)},
		{"N", "O", 1.211379e+06, 2.7980578e+08, 2.6580407719999993e+08, int64(47487)},
		{"R", "F", 1.208314e+06, 2.8070992e+08, 2.6667239149999994e+08, int64(47470)},
	}, []engine.Row{{1.8850694000000004e+06}}},
	{2, []engine.Row{
		{"A", "F", 1.212003e+06, 2.7881482e+08, 2.6488600429999986e+08, int64(47414)},
		{"A", "O", 1.210792e+06, 2.7885511e+08, 2.6492853000000033e+08, int64(47250)},
		{"R", "O", 1.215968e+06, 2.8240316e+08, 2.6834753980000007e+08, int64(47886)},
		{"N", "F", 1.217581e+06, 2.8089348e+08, 2.6689973800000015e+08, int64(47669)},
		{"N", "O", 1.221488e+06, 2.8213864e+08, 2.6803062850000006e+08, int64(47983)},
		{"R", "F", 1.215269e+06, 2.8050956e+08, 2.6649592120000035e+08, int64(47711)},
	}, []engine.Row{{1.8858086999999997e+06}}},
	{3, []engine.Row{
		{"A", "F", 1.227016e+06, 2.8393525e+08, 2.697614963000004e+08, int64(48015)},
		{"A", "O", 1.217482e+06, 2.8205763e+08, 2.6797310580000013e+08, int64(47590)},
		{"R", "O", 1.225218e+06, 2.8422972e+08, 2.7012873649999976e+08, int64(48187)},
		{"N", "F", 1.224308e+06, 2.8310065e+08, 2.6889715120000035e+08, int64(47907)},
		{"N", "O", 1.225838e+06, 2.8288328e+08, 2.6872235410000026e+08, int64(47838)},
		{"R", "F", 1.213207e+06, 2.8086841e+08, 2.6684714890000015e+08, int64(47509)},
	}, []engine.Row{{1.8688671000000003e+06}}},
}

func TestLiteQ1Q6PinnedSinkRows(t *testing.T) {
	for _, pin := range pinnedQ1Q6 {
		t.Run(fmt.Sprintf("seed%d", pin.seed), func(t *testing.T) {
			e, _ := liteEngine(t, 5, pin.seed, 4)
			job, plans := LiteQ1(4, 3, "1998-09-02")
			if got, err := e.Run(job, plans); err != nil {
				t.Fatal(err)
			} else if !reflect.DeepEqual(got, pin.q1) {
				t.Errorf("Q1 sink rows\n got %#v\nwant %#v", got, pin.q1)
			}
			job, plans = LiteQ6(4, "1994-01-01", "1995-01-01")
			if got, err := e.Run(job, plans); err != nil {
				t.Fatal(err)
			} else if !reflect.DeepEqual(got, pin.q6) {
				t.Errorf("Q6 sink rows\n got %#v\nwant %#v", got, pin.q6)
			}
		})
	}
}
