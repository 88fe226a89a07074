package tpch

import (
	"fmt"
	"math/rand"

	"swift/internal/engine"
)

// TPC-H-lite: a seeded, dbgen-like generator for the three tables the
// runnable query suite needs, sized by a miniature scale factor (sf = 1.0
// ≈ 60k lineitems). Dates are ISO strings, so lexicographic comparison is
// chronological; the plans compare them as packed integer keys (dateKey),
// which order the same way. The generated distributions follow the TPC-H
// spec's shapes (1–7 lineitems per order, uniform discounts 0–10%, etc.)
// closely enough for the queries' selectivities to be realistic.

// LiteSchemas gives the column layout of each generated table.
var LiteSchemas = map[string]engine.Schema{
	"lineitem": {"l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
		"l_extendedprice", "l_discount", "l_tax", "l_returnflag",
		"l_linestatus", "l_shipdate"},
	"orders":   {"o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice", "o_orderdate", "o_shippriority"},
	"customer": {"c_custkey", "c_name", "c_mktsegment"},
}

// A row cell is an interface, and putting a string or a float64 (or an
// int64 of 256 and up) into one allocates. Every low-cardinality value is
// therefore boxed once, in these tables, and the generator draws an index
// into one, so the database holds a few thousand shared boxes instead of
// millions and the date strings a scan compares stay in cache. The draws
// and the values they pick must stay those of boxing each value afresh:
// TestGenerateLitePinnedDigest holds the tables to digests taken that way.
var (
	mktSegments = []engine.Value{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	returnFlags = []engine.Value{"R", "A", "N"}
	statuses    = []engine.Value{"O", "F"} // l_linestatus and o_orderstatus
	quantities  = boxed(50, func(i int) engine.Value { return float64(1 + i) })
	prices      = boxed(1000, func(i int) engine.Value { return 900.0 + 100*float64(i)/10 })
	discounts   = boxed(11, func(i int) engine.Value { return float64(i) / 100 })
	taxes       = boxed(9, func(i int) engine.Value { return float64(i) / 100 })
	partkeys    = boxed(2000, func(i int) engine.Value { return int64(1 + i) })
	// dates is indexed by ((year-1992)*12 + month-1)*28 + day-1.
	dates = boxed(7*12*28, func(i int) engine.Value {
		return fmt.Sprintf("%04d-%02d-%02d", 1992+i/(12*28), 1+i/28%12, 1+i%28)
	})
)

// boxed returns val(0), …, val(n-1), each boxed once.
func boxed(n int, val func(i int) engine.Value) []engine.Value {
	out := make([]engine.Value, n)
	for i := range out {
		out[i] = val(i)
	}
	return out
}

// liteDate draws a date: year, then month, then day.
func liteDate(r *rand.Rand) engine.Value {
	year := r.Intn(7)
	month := r.Intn(12)
	day := r.Intn(28)
	return dates[(year*12+month)*28+day]
}

// Lite holds a generated TPC-H-lite database.
type Lite struct {
	Customer *engine.Table
	Orders   *engine.Table
	Lineitem *engine.Table
}

// Tables lists the generated tables for engine registration.
func (l *Lite) Tables() []*engine.Table {
	return []*engine.Table{l.Customer, l.Orders, l.Lineitem}
}

// GenerateLite builds the database at the given miniature scale factor
// with the given seed; parts is the partition count (scan parallelism) for
// each table.
func GenerateLite(sf float64, seed int64, parts int) *Lite {
	if sf <= 0 {
		sf = 0.1
	}
	if parts < 1 {
		parts = 4
	}
	r := rand.New(rand.NewSource(seed))
	customers := int(1500 * sf)
	if customers < 10 {
		customers = 10
	}
	orders := customers * 10

	custRows := make([]engine.Row, customers)
	for i := range custRows {
		custRows[i] = engine.Row{
			int64(i + 1),
			fmt.Sprintf("Customer#%06d", i+1),
			mktSegments[r.Intn(len(mktSegments))],
		}
	}

	orderRows := make([]engine.Row, orders)
	var lineRows []engine.Row
	for i := range orderRows {
		var okey engine.Value = int64(i + 1) // one box for the order and its lines
		lines := 1 + r.Intn(7)
		var total float64
		date := liteDate(r)
		for ln := 0; ln < lines; ln++ {
			qty := quantities[r.Intn(len(quantities))]
			price := prices[r.Intn(len(prices))]
			discount := discounts[r.Intn(len(discounts))]
			tax := taxes[r.Intn(len(taxes))]
			total += price.(float64) * (1 - discount.(float64))
			partkey := partkeys[r.Intn(len(partkeys))]
			suppkey := int64(1 + r.Intn(100)) // below 256: boxing it allocates nothing
			flag := returnFlags[r.Intn(len(returnFlags))]
			status := statuses[r.Intn(len(statuses))]
			lineRows = append(lineRows, engine.Row{
				okey, partkey, suppkey, qty, price, discount, tax, flag, status, liteDate(r),
			})
		}
		status := statuses[0]
		if r.Intn(2) == 0 {
			status = statuses[1]
		}
		orderRows[i] = engine.Row{
			okey,
			custRows[r.Intn(customers)][0], // the customer's own custkey box
			status,
			total,
			date,
			int64(0),
		}
	}

	return &Lite{
		Customer: engine.NewTable("customer", LiteSchemas["customer"], custRows, parts),
		Orders:   engine.NewTable("orders", LiteSchemas["orders"], orderRows, parts),
		Lineitem: engine.NewTable("lineitem", LiteSchemas["lineitem"], lineRows, parts),
	}
}
