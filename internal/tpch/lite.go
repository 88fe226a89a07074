package tpch

import (
	"fmt"

	"swift/internal/dag"
	"swift/internal/engine"
)

// Runnable TPC-H-lite queries: physical plans that execute for real on the
// engine against a GenerateLite database. Four queries cover the suite's
// operator classes — Q1 (scan + partial aggregation, merged after the
// shuffle), Q6 (filter + global sum), Q3 (3-way semi-join chain + group-by
// + top-k ordering) and, in lite_q12.go, Q12 (co-partitioned join +
// conditional aggregation). Each returns the job DAG and the stage bodies;
// reference implementations for verification live beside them
// (LiteQ*Reference). Every date predicate compares packed keys (dateKey),
// never strings; the references compare the strings, so they check the
// packing as well as the plans.

// liteCols caches frequently used column indexes.
var (
	liCols = LiteSchemas["lineitem"]
	orCols = LiteSchemas["orders"]
	cuCols = LiteSchemas["customer"]
)

// LiteQ1 is the pricing-summary query: per (returnflag, linestatus), sum
// of quantity, sum of extended price, sum of discounted price and row
// count over lineitems shipped up to the cutoff date. Each scan task
// aggregates its own partition, so the shuffle carries at most one row per
// group and scan task, and `agg` sums the partials.
func LiteQ1(scanTasks, aggTasks int, cutoff string) (*dag.Job, engine.Plans) {
	job := dag.NewBuilder("lite-q1").
		Stage("scan", scanTasks, dag.Op(dag.OpTableScan), dag.Op(dag.OpFilter), dag.Op(dag.OpHashAggregate), dag.Op(dag.OpShuffleWrite)).
		StageOpt(&dag.Stage{Name: "agg", Tasks: aggTasks, Idempotent: true,
			Operators: []dag.Operator{dag.Op(dag.OpShuffleRead), dag.Op(dag.OpStreamedAggregate), dag.Op(dag.OpAdhocSink)}}).
		Edge("scan", "agg", dag.OpStreamedAggregate, 1<<20).
		MustBuild()

	flag := liCols.MustCol("l_returnflag")
	status := liCols.MustCol("l_linestatus")
	ship := liCols.MustCol("l_shipdate")
	qty := liCols.MustCol("l_quantity")
	price := liCols.MustCol("l_extendedprice")
	disc := liCols.MustCol("l_discount")
	cut := mustDateKey(cutoff)

	plans := engine.Plans{
		"scan": func(ctx *engine.TaskContext) error {
			b, err := ctx.TablePartitionBatch("lineitem")
			if err != nil {
				return err
			}
			// The discounted price is one typed pass over the whole
			// partition, so the dense batch takes it as a column without a
			// gather; the shipdate filter is a view over that, and the
			// partial aggregate folds the view in partition order. What
			// the shuffle carries is at most one row per group.
			prices, discs := b.Cols[price].Floats, b.Cols[disc].Floats
			discounted := make([]float64, b.Len)
			for i := range discounted {
				discounted[i] = prices[i] * (1 - discs[i])
			}
			ships := b.Cols[ship].Strs
			rows := engine.FilterBatch(
				b.Project([]int{flag, status, qty, price}).WithCol(engine.Float64Col(discounted)),
				func(i int) bool { return dateKey(ships[i]) <= cut })
			partial := engine.HashAggregateBatch(rows, []int{0, 1}, []engine.Agg{
				{Kind: engine.AggSum, Col: 2},
				{Kind: engine.AggSum, Col: 3},
				{Kind: engine.AggSum, Col: 4},
				{Kind: engine.AggCount, Col: 0},
			})
			return ctx.EmitBatchByKey("agg", partial, []int{0, 1})
		},
		"agg": func(ctx *engine.TaskContext) error {
			// (flag, status, sum qty, sum price, sum discounted, count):
			// every column after the keys merges by summing.
			b, err := ctx.InputBatch("scan")
			if err != nil {
				return err
			}
			ctx.SinkBatch(engine.HashAggregateBatch(b, []int{0, 1}, []engine.Agg{
				{Kind: engine.AggSum, Col: 2},
				{Kind: engine.AggSum, Col: 3},
				{Kind: engine.AggSum, Col: 4},
				{Kind: engine.AggSum, Col: 5},
			}))
			return nil
		},
	}
	return job, plans
}

// LiteQ1Reference computes Q1 directly over the table.
func LiteQ1Reference(l *Lite, cutoff string) map[[2]string][4]float64 {
	flag := liCols.MustCol("l_returnflag")
	status := liCols.MustCol("l_linestatus")
	ship := liCols.MustCol("l_shipdate")
	qty := liCols.MustCol("l_quantity")
	price := liCols.MustCol("l_extendedprice")
	disc := liCols.MustCol("l_discount")
	out := map[[2]string][4]float64{}
	for _, part := range l.Lineitem.Partitions {
		for _, r := range part {
			if r[ship].(string) > cutoff {
				continue
			}
			k := [2]string{r[flag].(string), r[status].(string)}
			acc := out[k]
			acc[0] += r[qty].(float64)
			acc[1] += r[price].(float64)
			acc[2] += r[price].(float64) * (1 - r[disc].(float64))
			acc[3]++
			out[k] = acc
		}
	}
	return out
}

// LiteQ6 is the forecasting-revenue query: sum(extendedprice × discount)
// over lineitems in a date range with discount and quantity bands.
func LiteQ6(scanTasks int, lo, hi string) (*dag.Job, engine.Plans) {
	job := dag.NewBuilder("lite-q6").
		Stage("scan", scanTasks, dag.Op(dag.OpTableScan), dag.Op(dag.OpFilter), dag.Op(dag.OpShuffleWrite)).
		Stage("sum", 1, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpHashAggregate), dag.Op(dag.OpAdhocSink)).
		Pipeline("scan", "sum", 1<<20).
		MustBuild()
	ship := liCols.MustCol("l_shipdate")
	qty := liCols.MustCol("l_quantity")
	price := liCols.MustCol("l_extendedprice")
	disc := liCols.MustCol("l_discount")
	from, until := mustDateKey(lo), mustDateKey(hi)
	plans := engine.Plans{
		"scan": func(ctx *engine.TaskContext) error {
			b, err := ctx.TablePartitionBatch("lineitem")
			if err != nil {
				return err
			}
			// Fully columnar filter+sum: the predicate and the fold both run
			// over typed vectors, so no cell is ever boxed.
			ships := b.Cols[ship].Strs
			qtys := b.Cols[qty].Floats
			prices := b.Cols[price].Floats
			var rev float64
			for i, d := range b.Cols[disc].Floats {
				if s := dateKey(ships[i]); s < from || s >= until {
					continue
				}
				if d < 0.05 || d > 0.07 || qtys[i] >= 24 {
					continue
				}
				rev += prices[i] * d
			}
			part := engine.NewBatch(engine.Float64Col([]float64{rev}))
			return ctx.EmitBatchPartitioned("sum", []*engine.Batch{part})
		},
		"sum": func(ctx *engine.TaskContext) error {
			b, err := ctx.InputBatch("scan")
			if err != nil {
				return err
			}
			var total float64
			for _, v := range b.Cols[0].Floats {
				total += v
			}
			ctx.SinkBatch(engine.NewBatch(engine.Float64Col([]float64{total})))
			return nil
		},
	}
	return job, plans
}

// LiteQ6Reference computes Q6 directly.
func LiteQ6Reference(l *Lite, lo, hi string) float64 {
	ship := liCols.MustCol("l_shipdate")
	qty := liCols.MustCol("l_quantity")
	price := liCols.MustCol("l_extendedprice")
	disc := liCols.MustCol("l_discount")
	var rev float64
	for _, part := range l.Lineitem.Partitions {
		for _, r := range part {
			d := r[disc].(float64)
			if s := r[ship].(string); s < lo || s >= hi {
				continue
			}
			if d < 0.05 || d > 0.07 || r[qty].(float64) >= 24 {
				continue
			}
			rev += r[price].(float64) * d
		}
	}
	return rev
}

// LiteQ3 is the shipping-priority query: customers in a market segment
// joined to their orders placed before a date, revenue aggregated per
// order, top-k by revenue. Each scan keeps only what the next one needs:
// `cust` broadcasts the segment's custkeys to `ord`, `ord` broadcasts the
// qualifying orderkeys to `line`, and `line` ships only the lineitems of
// those orders to `join`, whose tasks each ship their own top k. The two
// semi-joins are filters against a keySet.
func LiteQ3(scanTasks, joinTasks, topK int, segment, date string) (*dag.Job, engine.Plans) {
	job := dag.NewBuilder("lite-q3").
		Stage("cust", scanTasks, dag.Op(dag.OpTableScan), dag.Op(dag.OpFilter), dag.Op(dag.OpShuffleWrite)).
		Stage("ord", scanTasks, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpTableScan), dag.Op(dag.OpFilter), dag.Op(dag.OpShuffleWrite)).
		Stage("line", scanTasks, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpTableScan), dag.Op(dag.OpFilter), dag.Op(dag.OpShuffleWrite)).
		Stage("join", joinTasks, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpHashJoin), dag.Op(dag.OpHashAggregate), dag.Op(dag.OpLimit), dag.Op(dag.OpShuffleWrite)).
		StageOpt(&dag.Stage{Name: "top", Tasks: 1, Idempotent: true,
			Operators: []dag.Operator{dag.Op(dag.OpShuffleRead), dag.Op(dag.OpSortBy), dag.Op(dag.OpLimit), dag.Op(dag.OpAdhocSink)}}).
		Pipeline("cust", "ord", 1<<20).
		Pipeline("ord", "line", 1<<20).
		Pipeline("ord", "join", 1<<20).
		Pipeline("line", "join", 1<<20).
		Edge("join", "top", dag.OpSortBy, 1<<20).
		MustBuild()

	cKey := cuCols.MustCol("c_custkey")
	cSeg := cuCols.MustCol("c_mktsegment")
	oKey := orCols.MustCol("o_orderkey")
	oCust := orCols.MustCol("o_custkey")
	oDate := orCols.MustCol("o_orderdate")
	lKey := liCols.MustCol("l_orderkey")
	lPrice := liCols.MustCol("l_extendedprice")
	lDisc := liCols.MustCol("l_discount")
	before := mustDateKey(date)

	plans := engine.Plans{
		"cust": func(ctx *engine.TaskContext) error {
			b, err := ctx.TablePartitionBatch("customer")
			if err != nil {
				return err
			}
			segs := b.Cols[cSeg].Strs
			out := engine.FilterBatch(b, func(i int) bool { return segs[i] == segment }).
				Project([]int{cKey})
			// Orders are not partitioned by custkey, so every `ord` task
			// gets the whole (small, filtered) customer set.
			return ctx.BroadcastBatch("ord", out)
		},
		"ord": func(ctx *engine.TaskContext) error {
			custs, err := ctx.InputBatch("cust") // (custkey)
			if err != nil {
				return err
			}
			b, err := ctx.TablePartitionBatch("orders")
			if err != nil {
				return err
			}
			// Orders placed before the date by the segment's customers, as
			// a view: (orderkey, orderdate).
			inSeg := newKeySet(custs.Cols[0].Ints)
			dates, ocusts := b.Cols[oDate].Strs, b.Cols[oCust].Ints
			out := engine.FilterBatch(b, func(i int) bool { return dateKey(dates[i]) < before && inSeg.has(ocusts[i]) }).
				Project([]int{oKey, oDate})
			if err := ctx.BroadcastBatch("line", out.Project([]int{0})); err != nil {
				return err
			}
			return ctx.EmitBatchByKey("join", out, []int{0})
		},
		"line": func(ctx *engine.TaskContext) error {
			orders, err := ctx.InputBatch("ord") // (orderkey)
			if err != nil {
				return err
			}
			b, err := ctx.TablePartitionBatch("lineitem")
			if err != nil {
				return err
			}
			// The lineitems of qualifying orders, in partition order, so
			// each `join` task folds the same revenues in the same order as
			// if every lineitem came.
			qual := newKeySet(orders.Cols[0].Ints)
			okeys := b.Cols[lKey].Ints
			kept := engine.FilterBatch(b, func(i int) bool { return qual.has(okeys[i]) })
			prices, discs := b.Cols[lPrice].Floats, b.Cols[lDisc].Floats
			revs := make([]float64, kept.Len)
			for j, i := range kept.Sel {
				revs[j] = prices[i] * (1 - discs[i])
			}
			out := kept.Project([]int{lKey}).WithCol(engine.Float64Col(revs))
			return ctx.EmitBatchByKey("join", out, []int{0})
		},
		"join": func(ctx *engine.TaskContext) error {
			orders, err := ctx.InputBatch("ord") // (orderkey, orderdate)
			if err != nil {
				return err
			}
			lines, err := ctx.InputBatch("line") // (orderkey, revenue)
			if err != nil {
				return err
			}
			// Revenue per order. HashAggregateBatch sorts by its keys, and
			// orderkey is unique, so the result is orderkey-ordered.
			j := engine.HashJoinBatch(orders, []int{0}, lines, []int{0})
			agg := engine.HashAggregateBatch(j, []int{0, 3}, []engine.Agg{
				{Kind: engine.AggSum, Col: 1},
			})
			out := agg.Project([]int{0, 2, 1}) // (orderkey, revenue, orderdate)
			// A stable top k of each task's run, concatenated in task order,
			// has the same stable top k as the runs themselves.
			return ctx.EmitBatchPartitioned("top", []*engine.Batch{engine.TopKBatch(out, []int{1}, topK, true)})
		},
		"top": func(ctx *engine.TaskContext) error {
			b, err := ctx.InputBatch("join")
			if err != nil {
				return err
			}
			// Order by revenue desc; ties keep join-task order, then
			// orderkey order.
			ctx.SinkBatch(engine.TopKBatch(b, []int{1}, topK, true))
			return nil
		},
	}
	return job, plans
}

// keySet is a semi-join's build side as one bit per key value, from 0 to
// the largest key. GenerateLite's custkeys and orderkeys are 1..n, so the
// set costs n/8 bytes at most and a probe is one bit test, where
// HashJoinBatch would hash the key and walk a chain: on Q3's 300k
// lineitems at sf 5 that was most of the query's time. Q3's two
// semi-joins and Q12's join filter against one.
type keySet []uint64

// newKeySet sets the bit of every key; a negative key, which has can never
// report, is skipped.
func newKeySet(keys []int64) keySet {
	var top int64
	for _, k := range keys {
		top = max(top, k)
	}
	s := make(keySet, top/64+1)
	for _, k := range keys {
		if k >= 0 {
			s[k/64] |= 1 << (k % 64)
		}
	}
	return s
}

func (s keySet) has(k int64) bool {
	return k >= 0 && k/64 < int64(len(s)) && s[k/64]&(1<<(k%64)) != 0
}

// dateKey packs a YYYY-MM-DD date's eight digit bytes, big-endian, into one
// integer. Two such strings have their dashes in the same places, so they
// order exactly as their keys do, and a plan's date predicate is an integer
// compare where a string compare is a runtime call per row. Plans pack each
// row's date as they read it (GenerateLite draws only well-formed dates; a
// string shorter than ten bytes panics, which fails the task) and each
// bound once, when the plan is built, through mustDateKey.
func dateKey(s string) uint64 {
	_ = s[9]
	return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
		uint64(s[5])<<24 | uint64(s[6])<<16 | uint64(s[8])<<8 | uint64(s[9])
}

// mustDateKey is dateKey for a query's date argument: like MustCol, it
// panics on a malformed one, anything but four, two and two ASCII digits
// joined by dashes.
func mustDateKey(s string) uint64 {
	ok := len(s) == 10
	for i := 0; ok && i < len(s); i++ {
		if i == 4 || i == 7 {
			ok = s[i] == '-'
		} else {
			ok = '0' <= s[i] && s[i] <= '9'
		}
	}
	if !ok {
		panic(fmt.Sprintf("tpch: date %q is not YYYY-MM-DD", s))
	}
	return dateKey(s)
}

// LiteQ3Reference computes Q3 directly, returning orderkey → revenue for
// the qualifying orders (the caller takes the top-k).
func LiteQ3Reference(l *Lite, segment, date string) map[int64]float64 {
	cKey := cuCols.MustCol("c_custkey")
	cSeg := cuCols.MustCol("c_mktsegment")
	oKey := orCols.MustCol("o_orderkey")
	oCust := orCols.MustCol("o_custkey")
	oDate := orCols.MustCol("o_orderdate")
	lKey := liCols.MustCol("l_orderkey")
	lPrice := liCols.MustCol("l_extendedprice")
	lDisc := liCols.MustCol("l_discount")

	inSeg := map[int64]bool{}
	for _, part := range l.Customer.Partitions {
		for _, r := range part {
			if r[cSeg].(string) == segment {
				inSeg[r[cKey].(int64)] = true
			}
		}
	}
	keep := map[int64]bool{}
	for _, part := range l.Orders.Partitions {
		for _, r := range part {
			if r[oDate].(string) < date && inSeg[r[oCust].(int64)] {
				keep[r[oKey].(int64)] = true
			}
		}
	}
	rev := map[int64]float64{}
	for _, part := range l.Lineitem.Partitions {
		for _, r := range part {
			if k := r[lKey].(int64); keep[k] {
				rev[k] += r[lPrice].(float64) * (1 - r[lDisc].(float64))
			}
		}
	}
	return rev
}
