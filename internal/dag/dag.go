// Package dag defines the job model used throughout Swift: a directed
// acyclic graph of stages connected by shuffle edges that are either
// pipeline edges (data can be streamed to the consumer as produced) or
// barrier edges (the consumer applies a global-sort-class operator and the
// producer side must complete first). The classification drives job
// partitioning into graphlets (package graphlet) and shuffle-mode selection
// (package shuffle), exactly as described in Section III of the paper.
package dag

import (
	"fmt"
	"strings"
)

// EdgeMode classifies an inter-stage shuffle edge.
type EdgeMode int

const (
	// Pipeline edges allow the producer to stream data to the consumer
	// for continuous processing; both sides can be gang scheduled into
	// the same graphlet.
	Pipeline EdgeMode = iota
	// Barrier edges involve a global SORT operation on the consuming
	// side, so the producer stages must complete before the consumer can
	// make progress. Barrier edges delimit graphlets.
	Barrier
)

// String returns "pipeline" or "barrier".
func (m EdgeMode) String() string {
	if m == Barrier {
		return "barrier"
	}
	return "pipeline"
}

// Edge is a shuffle dependency between two stages of a job.
type Edge struct {
	From string // producer stage name
	To   string // consumer stage name
	// Op is the operator on the consuming side that ingests this edge's
	// data. If Op.GlobalSort() the edge is a barrier. Planners may leave
	// Op as OpShuffleRead and set Mode explicitly instead.
	Op OperatorKind
	// Mode caches the pipeline/barrier classification. Classify derives
	// it from Op; builders that know the mode can set it directly.
	Mode EdgeMode
	// Bytes is the total shuffle volume crossing the edge. Used by the
	// simulator's cost model and by the Bubble-Execution baseline (which
	// partitions by shuffle data size rather than by shuffle mode).
	Bytes int64
}

// Cost carries the per-stage workload characteristics the simulator needs.
// All values are totals across the stage's tasks unless stated otherwise.
type Cost struct {
	// ScanBytes is data read from base tables (M-stages in the paper's
	// figures). Zero for pure shuffle consumers.
	ScanBytes int64
	// ProcessSecondsPerTask is pure record-processing CPU time for one
	// task once its input is available (the "P" phase of Fig. 9b).
	ProcessSecondsPerTask float64
	// OutputBytes is data written to the job's final sink, if any.
	OutputBytes int64
	// Records is the total input record count (Fig. 13 reporting).
	Records int64
}

// Stage is one vertex of the job DAG: a set of identical parallel tasks.
type Stage struct {
	Name      string
	Tasks     int
	Operators []Operator
	// Idempotent marks tasks whose re-execution regenerates an identical
	// output data set in an identical order (Section IV-B1). Recovery of
	// non-idempotent tasks must also re-run executed successors.
	Idempotent bool
	Cost       Cost
}

// HasGlobalSort reports whether any of the stage's operators is in the
// global-sort class; the paper uses this to mark the stage's outgoing edges
// as barriers ("J4, J6, and J10 contain MergeSort operator, thus the edges
// between J4 and J6, J6 and J10, J10 and R11 are barrier edges").
func (s *Stage) HasGlobalSort() bool {
	for _, op := range s.Operators {
		if op.Kind.GlobalSort() {
			return true
		}
	}
	return false
}

// Job is a complete DAG job as submitted by a client.
//
// TopoOrder (and Validate, which calls it) caches the order it computes in
// the job until the next AddStage or AddEdge, so a job shared between
// goroutines must be validated before it is shared, as every built,
// decoded or submitted job is.
type Job struct {
	ID string
	// Tenant labels the submitting tenant for multi-tenant scheduling
	// policies and per-tenant admission budgets. Empty means the default
	// tenant; the label never affects DAG semantics.
	Tenant string
	nodes  []node         // stages in insertion order
	index  map[string]int // stage name → position in nodes
	edges  []arc          // edges in insertion order
	topo   []string       // TopoOrder's result; nil until computed
}

// node is one stage with its edges as positions in Job.edges, each list in
// insertion order, and its position in the cached topological order (valid
// while Job.topo is set).
type node struct {
	stage   *Stage
	in, out []int
	rank    int
}

// arc is one edge with its endpoints as positions in Job.nodes.
type arc struct {
	edge     *Edge
	from, to int
}

// NewJob returns an empty job with the given identifier.
func NewJob(id string) *Job {
	return &Job{ID: id, index: make(map[string]int)}
}

// AddStage inserts a stage. It returns an error if the name is empty,
// duplicated, or the task count is not positive.
func (j *Job) AddStage(s *Stage) error {
	if s == nil || s.Name == "" {
		return fmt.Errorf("dag: stage must have a name")
	}
	if s.Tasks <= 0 {
		return fmt.Errorf("dag: stage %s: task count must be positive, got %d", s.Name, s.Tasks)
	}
	if _, dup := j.index[s.Name]; dup {
		return fmt.Errorf("dag: duplicate stage %s", s.Name)
	}
	j.index[s.Name] = len(j.nodes)
	j.nodes = append(j.nodes, node{stage: s})
	j.topo = nil
	return nil
}

// AddEdge inserts a shuffle edge. Both endpoints must already exist and the
// edge must not create a self-loop. Mode is derived from Op unless the
// caller has set Mode to Barrier explicitly.
func (j *Job) AddEdge(e *Edge) error {
	if e == nil {
		return fmt.Errorf("dag: nil edge")
	}
	if e.From == e.To {
		return fmt.Errorf("dag: self-loop on stage %s", e.From)
	}
	from, ok := j.index[e.From]
	if !ok {
		return fmt.Errorf("dag: edge %s->%s: unknown producer stage %s", e.From, e.To, e.From)
	}
	to, ok := j.index[e.To]
	if !ok {
		return fmt.Errorf("dag: edge %s->%s: unknown consumer stage %s", e.From, e.To, e.To)
	}
	for _, k := range j.nodes[from].out {
		if j.edges[k].to == to {
			return fmt.Errorf("dag: duplicate edge %s->%s", e.From, e.To)
		}
	}
	if e.Op.GlobalSort() {
		e.Mode = Barrier
	}
	k := len(j.edges)
	j.edges = append(j.edges, arc{edge: e, from: from, to: to})
	j.nodes[from].out = append(j.nodes[from].out, k)
	j.nodes[to].in = append(j.nodes[to].in, k)
	j.topo = nil
	return nil
}

// Stage returns the named stage, or nil if absent.
func (j *Job) Stage(name string) *Stage {
	if i, ok := j.index[name]; ok {
		return j.nodes[i].stage
	}
	return nil
}

// Stages returns all stages in insertion order.
func (j *Job) Stages() []*Stage {
	out := make([]*Stage, len(j.nodes))
	for i := range j.nodes {
		out[i] = j.nodes[i].stage
	}
	return out
}

// StageNames returns all stage names in insertion order.
func (j *Job) StageNames() []string {
	out := make([]string, len(j.nodes))
	for i := range j.nodes {
		out[i] = j.nodes[i].stage.Name
	}
	return out
}

// NumStages returns the stage count.
func (j *Job) NumStages() int { return len(j.nodes) }

// NumTasks returns the total task count across all stages.
func (j *Job) NumTasks() int {
	n := 0
	for i := range j.nodes {
		n += j.nodes[i].stage.Tasks
	}
	return n
}

// Edges returns all edges in insertion order.
func (j *Job) Edges() []*Edge {
	out := make([]*Edge, len(j.edges))
	for k := range j.edges {
		out[k] = j.edges[k].edge
	}
	return out
}

// In returns the edges entering the named stage.
func (j *Job) In(name string) []*Edge {
	if i, ok := j.index[name]; ok {
		return j.edgesAt(j.nodes[i].in)
	}
	return nil
}

// Out returns the edges leaving the named stage.
func (j *Job) Out(name string) []*Edge {
	if i, ok := j.index[name]; ok {
		return j.edgesAt(j.nodes[i].out)
	}
	return nil
}

func (j *Job) edgesAt(ks []int) []*Edge {
	out := make([]*Edge, len(ks))
	for i, k := range ks {
		out[i] = j.edges[k].edge
	}
	return out
}

// Classify re-derives every edge's Mode from the paper's heuristic: an edge
// is a barrier if its consuming operator is in the global-sort class, or if
// its producer stage contains a global-sort operator (the Fig. 4 rule — a
// stage that performs a global sort cannot stream onward). Edges whose Mode
// was explicitly set to Barrier by a planner are left as barriers.
func (j *Job) Classify() {
	for _, a := range j.edges {
		if a.edge.Op.GlobalSort() || j.nodes[a.from].stage.HasGlobalSort() {
			a.edge.Mode = Barrier
		}
	}
}

// Validate checks structural invariants: at least one stage, acyclicity,
// and every edge endpoint present. It returns the first violation found.
func (j *Job) Validate() error {
	if len(j.nodes) == 0 {
		return fmt.Errorf("dag: job %s has no stages", j.ID)
	}
	_, err := j.order()
	return err
}

// TopoOrder returns the stage names in a deterministic topological order
// (Kahn's algorithm with ties broken by insertion order). It returns an
// error if the graph has a cycle. The order is computed once and cached
// until the next AddStage or AddEdge; each call returns its own copy.
func (j *Job) TopoOrder() ([]string, error) {
	order, err := j.order()
	if err != nil {
		return nil, err
	}
	return append([]string(nil), order...), nil
}

// TopoIndex returns the named stage's position in TopoOrder, or -1 for an
// unknown stage or a cyclic job. It reads the cached order, so on a
// validated job it allocates nothing.
func (j *Job) TopoIndex(name string) int {
	i, ok := j.index[name]
	if !ok {
		return -1
	}
	if _, err := j.order(); err != nil {
		return -1
	}
	return j.nodes[i].rank
}

// order is TopoOrder without the copy. Each round places the earliest
// inserted stage whose producers are all placed; indeg[i] counts stage i's
// unplaced producers and is -1 once i is placed. Jobs have a handful of
// stages (at most 10 in the trace mix, a few dozen in a SQL plan), so the
// linear scan for the next stage is cheaper than keeping a heap.
func (j *Job) order() ([]string, error) {
	if j.topo != nil {
		return j.topo, nil
	}
	indeg := make([]int, len(j.nodes))
	for i := range j.nodes {
		indeg[i] = len(j.nodes[i].in)
	}
	order := make([]string, 0, len(j.nodes))
	for len(order) < len(j.nodes) {
		i := 0
		for i < len(indeg) && indeg[i] != 0 {
			i++
		}
		if i == len(indeg) {
			return nil, fmt.Errorf("dag: job %s contains a cycle", j.ID)
		}
		indeg[i] = -1
		j.nodes[i].rank = len(order)
		order = append(order, j.nodes[i].stage.Name)
		for _, k := range j.nodes[i].out {
			indeg[j.edges[k].to]--
		}
	}
	j.topo = order
	return order, nil
}

// Sinks returns the stages with no outgoing edges, in insertion order.
func (j *Job) Sinks() []string {
	var out []string
	for i := range j.nodes {
		if len(j.nodes[i].out) == 0 {
			out = append(out, j.nodes[i].stage.Name)
		}
	}
	return out
}

// ShuffleEdgeSize returns the paper's "shuffle size" for an edge: the number
// of task-to-task links between producer and consumer (M×N), which drives
// adaptive shuffle-mode selection (Section III-B).
func (j *Job) ShuffleEdgeSize(e *Edge) int {
	return j.Stage(e.From).Tasks * j.Stage(e.To).Tasks
}

// Clone returns a deep copy of the job. Schedulers that consume the DAG
// destructively (Algorithm 1 removes stages) operate on a clone.
func (j *Job) Clone() *Job {
	c := NewJob(j.ID)
	c.Tenant = j.Tenant
	for i := range j.nodes {
		s := *j.nodes[i].stage
		s.Operators = append([]Operator(nil), s.Operators...)
		if err := c.AddStage(&s); err != nil {
			panic("dag: clone: " + err.Error()) // impossible: source was valid
		}
	}
	for _, a := range j.edges {
		ec := *a.edge
		if err := c.AddEdge(&ec); err != nil {
			panic("dag: clone: " + err.Error())
		}
	}
	return c
}

// String renders a compact multi-line description of the job.
func (j *Job) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "job %s: %d stages, %d tasks\n", j.ID, j.NumStages(), j.NumTasks())
	for _, nd := range j.nodes {
		s := nd.stage
		ops := make([]string, len(s.Operators))
		for i, op := range s.Operators {
			ops[i] = op.Kind.String()
		}
		fmt.Fprintf(&b, "  %s x%d [%s]\n", s.Name, s.Tasks, strings.Join(ops, ","))
	}
	for _, a := range j.edges {
		e := a.edge
		fmt.Fprintf(&b, "  %s -> %s (%s, %d bytes)\n", e.From, e.To, e.Mode, e.Bytes)
	}
	return b.String()
}
