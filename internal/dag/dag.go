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
	"sort"
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
type Job struct {
	ID string
	// Tenant labels the submitting tenant for multi-tenant scheduling
	// policies and per-tenant admission budgets. Empty means the default
	// tenant; the label never affects DAG semantics.
	Tenant string
	stages map[string]*Stage
	order  []string // insertion order, used for deterministic iteration
	edges  []*Edge
	in     map[string][]*Edge
	out    map[string][]*Edge
}

// NewJob returns an empty job with the given identifier.
func NewJob(id string) *Job {
	return &Job{
		ID:     id,
		stages: make(map[string]*Stage),
		in:     make(map[string][]*Edge),
		out:    make(map[string][]*Edge),
	}
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
	if _, dup := j.stages[s.Name]; dup {
		return fmt.Errorf("dag: duplicate stage %s", s.Name)
	}
	j.stages[s.Name] = s
	j.order = append(j.order, s.Name)
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
	if _, ok := j.stages[e.From]; !ok {
		return fmt.Errorf("dag: edge %s->%s: unknown producer stage %s", e.From, e.To, e.From)
	}
	if _, ok := j.stages[e.To]; !ok {
		return fmt.Errorf("dag: edge %s->%s: unknown consumer stage %s", e.From, e.To, e.To)
	}
	for _, old := range j.out[e.From] {
		if old.To == e.To {
			return fmt.Errorf("dag: duplicate edge %s->%s", e.From, e.To)
		}
	}
	if e.Op.GlobalSort() {
		e.Mode = Barrier
	}
	j.edges = append(j.edges, e)
	j.out[e.From] = append(j.out[e.From], e)
	j.in[e.To] = append(j.in[e.To], e)
	return nil
}

// Stage returns the named stage, or nil if absent.
func (j *Job) Stage(name string) *Stage { return j.stages[name] }

// Stages returns all stages in insertion order.
func (j *Job) Stages() []*Stage {
	out := make([]*Stage, 0, len(j.order))
	for _, n := range j.order {
		out = append(out, j.stages[n])
	}
	return out
}

// StageNames returns all stage names in insertion order.
func (j *Job) StageNames() []string { return append([]string(nil), j.order...) }

// NumStages returns the stage count.
func (j *Job) NumStages() int { return len(j.stages) }

// NumTasks returns the total task count across all stages.
func (j *Job) NumTasks() int {
	n := 0
	for _, s := range j.stages {
		n += s.Tasks
	}
	return n
}

// Edges returns all edges in insertion order.
func (j *Job) Edges() []*Edge { return append([]*Edge(nil), j.edges...) }

// In returns the edges entering the named stage.
func (j *Job) In(name string) []*Edge { return append([]*Edge(nil), j.in[name]...) }

// Out returns the edges leaving the named stage.
func (j *Job) Out(name string) []*Edge { return append([]*Edge(nil), j.out[name]...) }

// Classify re-derives every edge's Mode from the paper's heuristic: an edge
// is a barrier if its consuming operator is in the global-sort class, or if
// its producer stage contains a global-sort operator (the Fig. 4 rule — a
// stage that performs a global sort cannot stream onward). Edges whose Mode
// was explicitly set to Barrier by a planner are left as barriers.
func (j *Job) Classify() {
	for _, e := range j.edges {
		if e.Op.GlobalSort() || j.stages[e.From].HasGlobalSort() {
			e.Mode = Barrier
		}
	}
}

// Validate checks structural invariants: at least one stage, acyclicity,
// and every edge endpoint present. It returns the first violation found.
func (j *Job) Validate() error {
	if len(j.stages) == 0 {
		return fmt.Errorf("dag: job %s has no stages", j.ID)
	}
	if _, err := j.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns the stage names in a deterministic topological order
// (Kahn's algorithm with ties broken by insertion order). It returns an
// error if the graph has a cycle.
func (j *Job) TopoOrder() ([]string, error) {
	indeg := make(map[string]int, len(j.stages))
	for name := range j.stages {
		indeg[name] = len(j.in[name])
	}
	pos := make(map[string]int, len(j.order))
	for i, n := range j.order {
		pos[n] = i
	}
	var ready []string
	for _, n := range j.order {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	var out []string
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool { return pos[ready[a]] < pos[ready[b]] })
		n := ready[0]
		ready = ready[1:]
		out = append(out, n)
		for _, e := range j.out[n] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	if len(out) != len(j.stages) {
		return nil, fmt.Errorf("dag: job %s contains a cycle", j.ID)
	}
	return out, nil
}

// Sinks returns the stages with no outgoing edges, in insertion order.
func (j *Job) Sinks() []string {
	var out []string
	for _, n := range j.order {
		if len(j.out[n]) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// ShuffleEdgeSize returns the paper's "shuffle size" for an edge: the number
// of task-to-task links between producer and consumer (M×N), which drives
// adaptive shuffle-mode selection (Section III-B).
func (j *Job) ShuffleEdgeSize(e *Edge) int {
	return j.stages[e.From].Tasks * j.stages[e.To].Tasks
}

// Clone returns a deep copy of the job. Schedulers that consume the DAG
// destructively (Algorithm 1 removes stages) operate on a clone.
func (j *Job) Clone() *Job {
	c := NewJob(j.ID)
	c.Tenant = j.Tenant
	for _, n := range j.order {
		s := *j.stages[n]
		s.Operators = append([]Operator(nil), s.Operators...)
		if err := c.AddStage(&s); err != nil {
			panic("dag: clone: " + err.Error()) // impossible: source was valid
		}
	}
	for _, e := range j.edges {
		ec := *e
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
	for _, n := range j.order {
		s := j.stages[n]
		ops := make([]string, len(s.Operators))
		for i, op := range s.Operators {
			ops[i] = op.Kind.String()
		}
		fmt.Fprintf(&b, "  %s x%d [%s]\n", s.Name, s.Tasks, strings.Join(ops, ","))
	}
	for _, e := range j.edges {
		fmt.Fprintf(&b, "  %s -> %s (%s, %d bytes)\n", e.From, e.To, e.Mode, e.Bytes)
	}
	return b.String()
}
