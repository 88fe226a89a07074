package sqlparse

import (
	"fmt"
	"strings"

	"swift/internal/dag"
	"swift/internal/tpch"
)

// Planner options.
type PlanOptions struct {
	// ScanTasks maps a table name to its scan parallelism; unknown
	// tables fall back to tpch.ScanTasks (for tpch_* names) or
	// DefaultScanTasks.
	ScanTasks map[string]int
	// DefaultScanTasks is the parallelism for unknown tables.
	DefaultScanTasks int
	// BytesPerTask estimates a scan task's input (cost annotation).
	BytesPerTask int64
}

// DefaultPlanOptions mirrors the paper's 200 MB-per-scan-task convention.
func DefaultPlanOptions() PlanOptions {
	return PlanOptions{DefaultScanTasks: 8, BytesPerTask: 200 << 20}
}

// Plan lowers a parsed statement to the DAG job model — the "converted to
// the DAG job model ... by a parser or compiler program" step of Section
// II-A. Physical conventions follow Fig. 4:
//
//   - each base table gets an M (scan) stage;
//   - each JOIN gets a J stage; sort-merge joins (every second join, as a
//     stand-in for the optimizer's choice) carry MergeSort, making their
//     outgoing edges barriers;
//   - GROUP BY lowers to a StreamedAggregate R stage (global-sort class);
//   - ORDER BY lowers to a SortBy R stage;
//   - the job ends in a single-task AdhocSink stage (LIMIT folds into it).
func Plan(id string, stmt *SelectStmt, opts PlanOptions) (*dag.Job, error) {
	p := &planner{job: dag.NewJob(id), opts: opts}
	out, outTasks, err := p.planSelect(stmt)
	if err != nil {
		return nil, err
	}
	// Terminal sink.
	sinkOps := []dag.Operator{dag.Op(dag.OpShuffleRead)}
	if stmt.Limit >= 0 {
		sinkOps = append(sinkOps, dag.Operator{Kind: dag.OpLimit, Expr: fmt.Sprintf("limit %d", stmt.Limit)})
	}
	sinkOps = append(sinkOps, dag.Op(dag.OpAdhocSink))
	sink := p.stage("R", 1, sinkOps...)
	p.edge(out, sink, outTasks/4+1)
	p.job.Classify()
	if err := p.job.Validate(); err != nil {
		return nil, err
	}
	return p.job, nil
}

// ParseAndPlan is the one-call front end used by swiftsql and the examples.
func ParseAndPlan(id, src string) (*dag.Job, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Plan(id, stmt, DefaultPlanOptions())
}

type planner struct {
	job   *dag.Job
	opts  PlanOptions
	seq   int
	joins int
}

func (p *planner) stage(prefix string, tasks int, ops ...dag.Operator) string {
	p.seq++
	name := fmt.Sprintf("%s%d", prefix, p.seq)
	if tasks < 1 {
		tasks = 1
	}
	st := &dag.Stage{Name: name, Tasks: tasks, Operators: ops, Idempotent: true}
	for _, op := range ops {
		if op.Kind == dag.OpTableScan {
			st.Cost.ScanBytes = int64(tasks) * p.opts.BytesPerTask
			st.Cost.ProcessSecondsPerTask = 1
		}
	}
	if st.Cost.ProcessSecondsPerTask == 0 {
		st.Cost.ProcessSecondsPerTask = 1.5
	}
	if err := p.job.AddStage(st); err != nil {
		panic("sqlparse: " + err.Error()) // names are generated; cannot collide
	}
	return name
}

func (p *planner) edge(from, to string, bytesTasks int) {
	err := p.job.AddEdge(&dag.Edge{
		From: from, To: to, Op: dag.OpShuffleRead,
		Bytes: int64(bytesTasks) * p.opts.BytesPerTask / 4,
	})
	if err != nil {
		panic("sqlparse: " + err.Error())
	}
}

func (p *planner) scanTasks(table string) int {
	if n, ok := p.opts.ScanTasks[table]; ok && n > 0 {
		return n
	}
	if strings.HasPrefix(table, "tpch_") {
		return tpch.ScanTasks(strings.TrimPrefix(table, "tpch_"))
	}
	if p.opts.DefaultScanTasks > 0 {
		return p.opts.DefaultScanTasks
	}
	return 8
}

// planSource lowers a FROM/JOIN source, returning its producing stage.
func (p *planner) planSource(ref TableRef) (string, int, error) {
	if ref.Sub != nil {
		return p.planSelect(ref.Sub)
	}
	tasks := p.scanTasks(ref.Table)
	name := p.stage("M", tasks,
		dag.Operator{Kind: dag.OpTableScan, Expr: ref.Table},
		dag.Op(dag.OpShuffleWrite))
	return name, tasks, nil
}

// planSelect lowers one (sub-)select and returns its final stage and that
// stage's task count.
func (p *planner) planSelect(stmt *SelectStmt) (string, int, error) {
	cur, curTasks, err := p.planSource(stmt.From)
	if err != nil {
		return "", 0, err
	}
	for _, jc := range stmt.Joins {
		right, rightTasks, err := p.planSource(jc.Table)
		if err != nil {
			return "", 0, err
		}
		p.joins++
		joinTasks := curTasks
		if rightTasks > joinTasks {
			joinTasks = rightTasks
		}
		joinTasks = clamp(joinTasks/2, 1, 256)
		ops := []dag.Operator{dag.Op(dag.OpShuffleRead)}
		// Alternate physical join strategies: the optimizer's
		// cost-based choice is out of scope (Section II-A), so odd
		// joins sort-merge (global sort — their out-edges become
		// barriers, cutting graphlets as in Fig. 4) and even joins
		// hash.
		if p.joins%2 == 1 {
			ops = append(ops, dag.Operator{Kind: dag.OpMergeJoin, Expr: jc.On}, dag.Op(dag.OpMergeSort))
		} else {
			ops = append(ops, dag.Operator{Kind: dag.OpHashJoin, Expr: jc.On})
		}
		ops = append(ops, dag.Op(dag.OpShuffleWrite))
		j := p.stage("J", joinTasks, ops...)
		p.edge(cur, j, curTasks)
		p.edge(right, j, rightTasks)
		cur, curTasks = j, joinTasks
	}
	if stmt.Where != "" {
		// Filters fuse into the upstream stage in a real optimizer; we
		// annotate the current stage rather than add a vertex.
		st := p.job.Stage(cur)
		st.Operators = append(st.Operators, dag.Operator{Kind: dag.OpFilter, Expr: stmt.Where})
	}
	if len(stmt.GroupBy) > 0 {
		aggTasks := clamp(curTasks/4, 1, 64)
		agg := p.stage("R", aggTasks,
			dag.Op(dag.OpShuffleRead),
			dag.Operator{Kind: dag.OpStreamedAggregate, Expr: strings.Join(stmt.GroupBy, ", ")},
			dag.Op(dag.OpShuffleWrite))
		p.edge(cur, agg, curTasks)
		cur, curTasks = agg, aggTasks
	}
	if len(stmt.OrderBy) > 0 {
		var exprs []string
		for _, o := range stmt.OrderBy {
			e := o.Expr
			if o.Desc {
				e += " desc"
			}
			exprs = append(exprs, e)
		}
		sortTasks := clamp(curTasks/4, 1, 16)
		sortOps := []dag.Operator{
			dag.Op(dag.OpShuffleRead),
			dag.Operator{Kind: dag.OpSortBy, Expr: strings.Join(exprs, ", ")},
		}
		if stmt.Limit >= 0 {
			// Limit pushdown: with ORDER BY + LIMIT each sort task only
			// needs its local top-N, so the sink reads N×tasks rows instead
			// of the full sort output. The sink keeps its own LIMIT for the
			// global cut.
			sortOps = append(sortOps, dag.Operator{Kind: dag.OpLimit, Expr: fmt.Sprintf("limit %d", stmt.Limit)})
		}
		sortOps = append(sortOps, dag.Op(dag.OpShuffleWrite))
		srt := p.stage("R", sortTasks, sortOps...)
		p.edge(cur, srt, curTasks)
		cur, curTasks = srt, sortTasks
	}
	return cur, curTasks, nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
