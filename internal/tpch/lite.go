package tpch

import (
	"swift/internal/dag"
	"swift/internal/engine"
)

// Runnable TPC-H-lite queries: physical plans that execute for real on the
// engine against a GenerateLite database. Three queries cover the suite's
// operator classes — Q1 (scan + streamed aggregation), Q6 (filter + global
// sum) and Q3 (3-way join + group-by + top-k ordering). Each returns the
// job DAG and the stage bodies; reference implementations for verification
// live beside them (LiteQ*Reference).

// liteCols caches frequently used column indexes.
var (
	liCols = LiteSchemas["lineitem"]
	orCols = LiteSchemas["orders"]
	cuCols = LiteSchemas["customer"]
)

// LiteQ1 is the pricing-summary query: per (returnflag, linestatus), sum
// of quantity, sum of extended price, sum of discounted price and row
// count over lineitems shipped up to the cutoff date.
func LiteQ1(scanTasks, aggTasks int, cutoff string) (*dag.Job, engine.Plans) {
	job := dag.NewBuilder("lite-q1").
		Stage("scan", scanTasks, dag.Op(dag.OpTableScan), dag.Op(dag.OpShuffleWrite)).
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

	plans := engine.Plans{
		"scan": func(ctx *engine.TaskContext) error {
			b, err := ctx.TablePartitionBatch("lineitem")
			if err != nil {
				return err
			}
			// Columnar scan: one typed pass over the shipdate vector builds
			// the selection and projection is free, so what is emitted is a
			// view over the table's columns; the partitions the shuffle
			// stores are views over it in turn.
			ships := b.Cols[ship].Strs
			out := engine.FilterBatch(b, func(i int) bool { return ships[i] <= cutoff }).
				Project([]int{flag, status, qty, price, disc})
			return ctx.EmitBatchByKey("agg", out, []int{0, 1})
		},
		"agg": func(ctx *engine.TaskContext) error {
			b, err := ctx.InputBatch("scan") // (flag, status, qty, price, disc)
			if err != nil {
				return err
			}
			// The discounted price is computed vector-at-a-time over the
			// dense input, in the order the sum folds it.
			discounted := make([]float64, b.Len)
			prices, discs := b.Cols[3].Floats, b.Cols[4].Floats
			for i := range discounted {
				discounted[i] = prices[i] * (1 - discs[i])
			}
			ctx.SinkBatch(engine.HashAggregateBatch(b.WithCol(engine.Float64Col(discounted)), []int{0, 1}, []engine.Agg{
				{Kind: engine.AggSum, Col: 2},
				{Kind: engine.AggSum, Col: 3},
				{Kind: engine.AggSum, Col: 5},
				{Kind: engine.AggCount, Col: 0},
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
				if s := ships[i]; s < lo || s >= hi {
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
// order, top-k by revenue.
func LiteQ3(scanTasks, joinTasks, topK int, segment, date string) (*dag.Job, engine.Plans) {
	job := dag.NewBuilder("lite-q3").
		Stage("cust", scanTasks, dag.Op(dag.OpTableScan), dag.Op(dag.OpFilter), dag.Op(dag.OpShuffleWrite)).
		Stage("ord", scanTasks, dag.Op(dag.OpTableScan), dag.Op(dag.OpFilter), dag.Op(dag.OpShuffleWrite)).
		Stage("line", scanTasks, dag.Op(dag.OpTableScan), dag.Op(dag.OpShuffleWrite)).
		Stage("join", joinTasks, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpHashJoin), dag.Op(dag.OpHashAggregate), dag.Op(dag.OpShuffleWrite)).
		StageOpt(&dag.Stage{Name: "top", Tasks: 1, Idempotent: true,
			Operators: []dag.Operator{dag.Op(dag.OpShuffleRead), dag.Op(dag.OpSortBy), dag.Op(dag.OpLimit), dag.Op(dag.OpAdhocSink)}}).
		Pipeline("cust", "join", 1<<20).
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

	plans := engine.Plans{
		"cust": func(ctx *engine.TaskContext) error {
			b, err := ctx.TablePartitionBatch("customer")
			if err != nil {
				return err
			}
			segs := b.Cols[cSeg].Strs
			out := engine.FilterBatch(b, func(i int) bool { return segs[i] == segment }).
				Project([]int{cKey})
			// Customers partition by custkey; orders carry custkey too,
			// but the join key downstream is orderkey, so broadcast the
			// (small, filtered) customer set instead.
			return ctx.BroadcastBatch("join", out)
		},
		"ord": func(ctx *engine.TaskContext) error {
			b, err := ctx.TablePartitionBatch("orders")
			if err != nil {
				return err
			}
			dates := b.Cols[oDate].Strs
			out := engine.FilterBatch(b, func(i int) bool { return dates[i] < date }).
				Project([]int{oKey, oCust, oDate})
			return ctx.EmitBatchByKey("join", out, []int{0})
		},
		"line": func(ctx *engine.TaskContext) error {
			b, err := ctx.TablePartitionBatch("lineitem")
			if err != nil {
				return err
			}
			revs := make([]float64, b.Len)
			prices := b.Cols[lPrice].Floats
			discs := b.Cols[lDisc].Floats
			for i := range revs {
				revs[i] = prices[i] * (1 - discs[i])
			}
			out := b.Project([]int{lKey}).WithCol(engine.Float64Col(revs))
			return ctx.EmitBatchByKey("join", out, []int{0})
		},
		"join": func(ctx *engine.TaskContext) error {
			custs, err := ctx.InputBatch("cust") // (custkey)
			if err != nil {
				return err
			}
			orders, err := ctx.InputBatch("ord") // (orderkey, custkey, orderdate)
			if err != nil {
				return err
			}
			lines, err := ctx.InputBatch("line") // (orderkey, revenue)
			if err != nil {
				return err
			}
			// Semi-join orders to segment customers (custkey is unique, so
			// an inner join cannot duplicate orders), keep (orderkey, date).
			oj := engine.HashJoinBatch(custs, []int{0}, orders, []int{1}).
				Project([]int{0, 2})
			// Lineitems against qualifying orders, then revenue per order.
			// HashAggregateBatch sorts by its keys; orderkey is unique, so
			// the result is orderkey-ordered — deterministic for the sink.
			j := engine.HashJoinBatch(oj, []int{0}, lines, []int{0})
			agg := engine.HashAggregateBatch(j, []int{0, 3}, []engine.Agg{
				{Kind: engine.AggSum, Col: 1},
			})
			out := agg.Project([]int{0, 2, 1}) // (orderkey, revenue, orderdate)
			return ctx.EmitBatchPartitioned("top", []*engine.Batch{out})
		},
		"top": func(ctx *engine.TaskContext) error {
			b, err := ctx.InputBatch("join")
			if err != nil {
				return err
			}
			// Order by revenue desc; ties keep orderkey order.
			ctx.SinkBatch(engine.TopKBatch(b, []int{1}, topK, true))
			return nil
		},
	}
	return job, plans
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
