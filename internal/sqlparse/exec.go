package sqlparse

import (
	"fmt"
	"strings"

	"swift/internal/dag"
	"swift/internal/engine"
)

// Executable lowering: Compile turns a parsed statement into stage plans
// over the batch operator kernels, so a query string runs for real on the
// engine instead of stopping at the DAG sketch Plan produces. The supported
// subset is the shape the parser fully structures — a single base table,
// projected columns and sum/count/min/max aggregates, GROUP BY, ORDER BY
// over output columns and LIMIT. WHERE and JOIN conditions are carried as
// opaque expression strings by the parser, so Compile rejects them rather
// than guessing at semantics.

// Compiled is a runnable query: the DAG job, its batch stage plans and the
// output column names (aliases where given).
type Compiled struct {
	Job   *dag.Job
	Plans engine.Plans
	Out   engine.Schema
}

// CompileOptions sizes the compiled job's stages.
type CompileOptions struct {
	// ScanTasks is the scan-stage parallelism (default 4). Scan task i
	// reads table partition i, so it must be at least the registered
	// table's partition count to cover the whole table; tasks beyond it
	// scan nothing.
	ScanTasks int
	AggTasks  int // aggregate-stage parallelism (default scan/2; global aggregates force 1)
}

// aggKinds maps the SQL function name to the engine aggregate.
var aggKinds = map[string]engine.AggKind{
	"sum":   engine.AggSum,
	"count": engine.AggCount,
	"min":   engine.AggMin,
	"max":   engine.AggMax,
}

// parseAggExpr splits "fn(arg)" for a supported aggregate function.
func parseAggExpr(expr string) (fn, arg string, ok bool) {
	s := strings.TrimSpace(expr)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", "", false
	}
	fn = strings.ToLower(strings.TrimSpace(s[:open]))
	if _, known := aggKinds[fn]; !known {
		return "", "", false
	}
	return fn, strings.TrimSpace(s[open+1 : len(s)-1]), true
}

// Compile lowers stmt against the named table's schema to executable batch
// plans. The result runs with engine.Run; sink rows follow Out's column
// order.
func Compile(id string, stmt *SelectStmt, schema engine.Schema, opts CompileOptions) (*Compiled, error) {
	if stmt.From.Sub != nil {
		return nil, fmt.Errorf("sqlparse: compile: sub-selects are not executable")
	}
	if len(stmt.Joins) > 0 {
		return nil, fmt.Errorf("sqlparse: compile: JOIN is not executable (ON is an opaque expression)")
	}
	if stmt.Where != "" {
		return nil, fmt.Errorf("sqlparse: compile: WHERE is not executable (predicate is an opaque expression)")
	}
	table := stmt.From.Table
	scanTasks := opts.ScanTasks
	if scanTasks < 1 {
		scanTasks = 4
	}

	// GROUP BY columns become the leading scan-projection columns and the
	// aggregate keys.
	nk := len(stmt.GroupBy)
	groupPos := make(map[string]int, nk)
	scanCols := make([]int, 0, nk+len(stmt.Items))
	for i, g := range stmt.GroupBy {
		c := schema.Col(g)
		if c < 0 {
			return nil, fmt.Errorf("sqlparse: compile: unknown GROUP BY column %q", g)
		}
		groupPos[g] = i
		scanCols = append(scanCols, c)
	}

	// Select items: plain columns and aggregates. outSrc maps each output
	// column to its position in the pre-sink batch (aggregate output =
	// keys then aggs; plain projection = scan order).
	var (
		aggs    []engine.Agg
		out     engine.Schema
		outSrc  []int
		plainNP int // plain (non-aggregate) items outside GROUP BY
	)
	for _, it := range stmt.Items {
		name := it.Alias
		if name == "" {
			name = it.Expr
		}
		out = append(out, name)
		if fn, arg, ok := parseAggExpr(it.Expr); ok {
			src := 0 // count(*) folds over the first table column
			if arg != "*" {
				src = schema.Col(arg)
				if src < 0 {
					return nil, fmt.Errorf("sqlparse: compile: unknown column %q in %s()", arg, fn)
				}
			} else if fn != "count" {
				return nil, fmt.Errorf("sqlparse: compile: %s(*) is not a query", fn)
			}
			scanCols = append(scanCols, src)
			aggs = append(aggs, engine.Agg{Kind: aggKinds[fn], Col: nk + len(aggs)})
			outSrc = append(outSrc, nk+len(aggs)-1)
			continue
		}
		c := schema.Col(it.Expr)
		if c < 0 {
			return nil, fmt.Errorf("sqlparse: compile: unknown column %q", it.Expr)
		}
		if p, grouped := groupPos[it.Expr]; grouped {
			outSrc = append(outSrc, p)
			continue
		}
		if nk > 0 {
			return nil, fmt.Errorf("sqlparse: compile: %q must appear in GROUP BY or an aggregate", it.Expr)
		}
		plainNP++
		scanCols = append(scanCols, c)
		outSrc = append(outSrc, len(scanCols)-1)
	}
	aggregated := nk > 0 || len(aggs) > 0
	if aggregated && plainNP > 0 {
		return nil, fmt.Errorf("sqlparse: compile: cannot mix bare columns with aggregates without GROUP BY")
	}

	// ORDER BY resolves against the output schema; directions must agree
	// (TopKBatch orders by all keys in one direction).
	var sortKeys []int
	sortDesc := false
	for i, o := range stmt.OrderBy {
		c := out.Col(o.Expr)
		if c < 0 {
			return nil, fmt.Errorf("sqlparse: compile: ORDER BY %q is not an output column", o.Expr)
		}
		if i == 0 {
			sortDesc = o.Desc
		} else if o.Desc != sortDesc {
			return nil, fmt.Errorf("sqlparse: compile: mixed ASC/DESC is not supported")
		}
		sortKeys = append(sortKeys, c)
	}
	limit := stmt.Limit

	// Stage graph: scan → [agg →] sink.
	b := dag.NewBuilder(id).
		Stage("scan", scanTasks, dag.Operator{Kind: dag.OpTableScan, Expr: table}, dag.Op(dag.OpShuffleWrite))
	prev := "scan"
	if aggregated {
		aggTasks := opts.AggTasks
		if aggTasks < 1 {
			aggTasks = clamp(scanTasks/2, 1, 64)
		}
		if nk == 0 {
			aggTasks = 1 // a global aggregate has a single group
		}
		b = b.Stage("agg", aggTasks, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpHashAggregate), dag.Op(dag.OpShuffleWrite)).
			Pipeline("scan", "agg", 1<<20)
		prev = "agg"
	}
	sinkOps := []dag.Operator{dag.Op(dag.OpShuffleRead)}
	if len(sortKeys) > 0 {
		sinkOps = append(sinkOps, dag.Op(dag.OpSortBy))
	}
	if limit >= 0 {
		sinkOps = append(sinkOps, dag.Operator{Kind: dag.OpLimit, Expr: fmt.Sprintf("limit %d", limit)})
	}
	sinkOps = append(sinkOps, dag.Op(dag.OpAdhocSink))
	b = b.StageOpt(&dag.Stage{Name: "sink", Tasks: 1, Idempotent: true, Operators: sinkOps}).
		Pipeline(prev, "sink", 1<<20)
	job := b.MustBuild()

	keys := make([]int, nk)
	for i := range keys {
		keys[i] = i
	}

	plans := engine.Plans{
		"scan": func(ctx *engine.TaskContext) error {
			tb, err := ctx.TablePartitionBatch(table)
			if err != nil {
				return err
			}
			pb := tb.Project(scanCols)
			if aggregated {
				// Hash-partition on the group keys so each agg task owns
				// whole groups; a global aggregate ships everything to the
				// single agg task.
				return ctx.EmitBatchByKey("agg", pb, keys)
			}
			return ctx.EmitBatchByKey("sink", pb, outSrc)
		},
		"sink": func(ctx *engine.TaskContext) error {
			in, err := ctx.InputBatch(prev)
			if err != nil {
				return err
			}
			res := in.Project(outSrc)
			k := res.Len
			if limit >= 0 {
				k = limit
			}
			ctx.SinkBatch(engine.TopKBatch(res, sortKeys, k, sortDesc))
			return nil
		},
	}
	if aggregated {
		plans["agg"] = func(ctx *engine.TaskContext) error {
			in, err := ctx.InputBatch("scan")
			if err != nil {
				return err
			}
			return ctx.EmitBatchPartitioned("sink", []*engine.Batch{
				engine.HashAggregateBatch(in, keys, aggs),
			})
		}
	}
	return &Compiled{Job: job, Plans: plans, Out: out}, nil
}

// CompileAndRun is the one-call execution front end: parse, compile against
// the schema, run on the engine.
func CompileAndRun(e *engine.Engine, id, src string, schema engine.Schema, opts CompileOptions) ([]engine.Row, engine.Schema, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	c, err := Compile(id, stmt, schema, opts)
	if err != nil {
		return nil, nil, err
	}
	rows, err := e.Run(c.Job, c.Plans)
	if err != nil {
		return nil, nil, err
	}
	return rows, c.Out, nil
}
