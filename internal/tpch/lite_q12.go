package tpch

import (
	"swift/internal/dag"
	"swift/internal/engine"
)

// LiteQ12 is the shipping-modes-style query: join orders to lineitems
// shipped inside a date window and count, per order status, how many
// qualifying orders are high-priority (total price above the threshold)
// versus low-priority — TPC-H Q12's conditional-aggregation shape over a
// co-partitioned join. The join is a semi-join: each `join` task sets a
// keySet from its lineitems' orderkeys and keeps the orders it holds.
func LiteQ12(scanTasks, joinTasks int, lo, hi string, priceCut float64) (*dag.Job, engine.Plans) {
	job := dag.NewBuilder("lite-q12").
		Stage("ord", scanTasks, dag.Op(dag.OpTableScan), dag.Op(dag.OpShuffleWrite)).
		Stage("line", scanTasks, dag.Op(dag.OpTableScan), dag.Op(dag.OpFilter), dag.Op(dag.OpShuffleWrite)).
		Stage("join", joinTasks, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpHashJoin), dag.Op(dag.OpShuffleWrite)).
		StageOpt(&dag.Stage{Name: "agg", Tasks: 1, Idempotent: true,
			Operators: []dag.Operator{dag.Op(dag.OpShuffleRead), dag.Op(dag.OpStreamedAggregate), dag.Op(dag.OpAdhocSink)}}).
		Pipeline("ord", "join", 1<<20).
		Pipeline("line", "join", 1<<20).
		Edge("join", "agg", dag.OpStreamedAggregate, 1<<20).
		MustBuild()

	oKey := orCols.MustCol("o_orderkey")
	oStatus := orCols.MustCol("o_orderstatus")
	oTotal := orCols.MustCol("o_totalprice")
	lKey := liCols.MustCol("l_orderkey")
	lShip := liCols.MustCol("l_shipdate")
	from, until := mustDateKey(lo), mustDateKey(hi)

	// statusSums folds (status, high, low) rows into per-status totals.
	statusSums := []engine.Agg{{Kind: engine.AggSum, Col: 1}, {Kind: engine.AggSum, Col: 2}}

	plans := engine.Plans{
		"ord": func(ctx *engine.TaskContext) error {
			b, err := ctx.TablePartitionBatch("orders")
			if err != nil {
				return err
			}
			return ctx.EmitBatchByKey("join", b.Project([]int{oKey, oStatus, oTotal}), []int{0})
		},
		"line": func(ctx *engine.TaskContext) error {
			b, err := ctx.TablePartitionBatch("lineitem")
			if err != nil {
				return err
			}
			ships := b.Cols[lShip].Strs
			out := engine.FilterBatch(b, func(i int) bool {
				s := dateKey(ships[i])
				return s >= from && s < until
			}).
				Project([]int{lKey})
			return ctx.EmitBatchByKey("join", out, []int{0})
		},
		"join": func(ctx *engine.TaskContext) error {
			orders, err := ctx.InputBatch("ord") // (orderkey, status, totalprice)
			if err != nil {
				return err
			}
			lines, err := ctx.InputBatch("line") // (orderkey)
			if err != nil {
				return err
			}
			// Semi-join: an order qualifies if any lineitem of this partition
			// names it, so one with several qualifying lineitems still
			// counts once. The set is a bit per orderkey, and the orders
			// that qualify are a view over the input.
			qual := newKeySet(lines.Cols[0].Ints)
			okeys, totals := orders.Cols[0].Ints, orders.Cols[2].Floats
			high := make([]int64, orders.Len)
			low := make([]int64, orders.Len)
			for i, total := range totals {
				if total > priceCut {
					high[i] = 1
				} else {
					low[i] = 1
				}
			}
			flagged := orders.Project([]int{1}).WithCol(engine.Int64Col(high)).WithCol(engine.Int64Col(low))
			kept := engine.FilterBatch(flagged, func(i int) bool { return qual.has(okeys[i]) })
			// Pre-aggregate per status: the edge to `agg` carries one row per
			// status and join task, not one per qualifying order.
			out := engine.HashAggregateBatch(kept, []int{0}, statusSums)
			return ctx.EmitBatchPartitioned("agg", []*engine.Batch{out})
		},
		"agg": func(ctx *engine.TaskContext) error {
			b, err := ctx.InputBatch("join")
			if err != nil {
				return err
			}
			ctx.SinkBatch(engine.HashAggregateBatch(b, []int{0}, statusSums))
			return nil
		},
	}
	return job, plans
}

// LiteQ12Reference computes Q12 directly: status → (high, low) counts.
func LiteQ12Reference(l *Lite, lo, hi string, priceCut float64) map[string][2]int64 {
	oKey := orCols.MustCol("o_orderkey")
	oStatus := orCols.MustCol("o_orderstatus")
	oTotal := orCols.MustCol("o_totalprice")
	lKey := liCols.MustCol("l_orderkey")
	lShip := liCols.MustCol("l_shipdate")

	qual := map[int64]bool{}
	for _, part := range l.Lineitem.Partitions {
		for _, r := range part {
			if s := r[lShip].(string); s >= lo && s < hi {
				qual[r[lKey].(int64)] = true
			}
		}
	}
	out := map[string][2]int64{}
	for _, part := range l.Orders.Partitions {
		for _, r := range part {
			if !qual[r[oKey].(int64)] {
				continue
			}
			acc := out[r[oStatus].(string)]
			if r[oTotal].(float64) > priceCut {
				acc[0]++
			} else {
				acc[1]++
			}
			out[r[oStatus].(string)] = acc
		}
	}
	return out
}
