// Package graphlet implements Swift's shuffle-mode-aware job partitioning
// (Section III-A, Algorithms 1 and 2): a job DAG is split into graphlets —
// maximal sub-graphs connected by pipeline edges — and the graphlets are
// gang scheduled one at a time in dependency order, which avoids both the
// resource fragmentation of whole-job gang scheduling and the idle-executor
// waste of scheduling consumers long before their input data exist.
package graphlet

import (
	"fmt"
	"sort"
	"strings"

	"swift/internal/dag"
)

// Graphlet is a sub-graph of a job: the unit of gang scheduling and of
// failure-recovery scoping in Swift.
type Graphlet struct {
	// Index is the graphlet's position in Algorithm 1's output order
	// (0-based). The paper numbers graphlets from 1 in Fig. 4.
	Index int
	// Stages are the member stage names in the order Algorithm 2
	// discovered them.
	Stages []string
	// Trigger is the stage whose completion releases this graphlet's
	// dependants ("Trigger Stage" in Fig. 4): the member stage with
	// outgoing barrier edges. Empty if the graphlet has none (terminal).
	Trigger string
	// Tasks is the total task count, i.e. the executors the graphlet
	// needs when gang scheduled.
	Tasks int
	// DependsOn lists indices of graphlets that must complete (their
	// barrier-producing stages finish) before this one may be submitted.
	DependsOn []int
	// Gang marks a unit that starts all at once or not at all: none of its
	// tasks launches until the pool can hold every pending one, and while it
	// waits at the head of the FIFO request queue nothing behind it is
	// served — the head-of-line blocking that makes whole-job gang
	// scheduling's running-executor curve in Fig. 10 "full of waiting and
	// waste". Swift's own graphlets leave it unset: they accept partial
	// allocations, run in waves, and let later requests backfill.
	Gang bool
}

// String renders the graphlet like the paper's Fig. 4 annotations.
func (g *Graphlet) String() string {
	return fmt.Sprintf("graphlet %d {%s} trigger=%s tasks=%d",
		g.Index+1, strings.Join(g.Stages, ","), g.Trigger, g.Tasks)
}

// Contains reports whether the named stage belongs to this graphlet.
func (g *Graphlet) Contains(stage string) bool {
	for _, s := range g.Stages {
		if s == stage {
			return true
		}
	}
	return false
}

// Partition runs Algorithm 1 (Shuffle-Mode-Aware Job Partitioning) on the
// job and returns the graphlet list. The input job is not modified. The
// result is deterministic: stages are consumed in topological order with
// ties broken by insertion order, exactly once each.
func Partition(job *dag.Job) ([]*Graphlet, error) {
	topo, err := job.TopoOrder()
	if err != nil {
		return nil, err
	}

	remaining := make(map[string]bool, len(topo))
	for _, s := range topo {
		remaining[s] = true
	}

	var graphlets []*Graphlet
	// Algorithm 1: while Job_DAG not empty, pop the first stage in
	// topology order, open a new graphlet, and expand it.
	for _, start := range topo {
		if !remaining[start] {
			continue
		}
		delete(remaining, start)
		g := &Graphlet{Index: len(graphlets)}
		scanAndAddStages(job, start, g, remaining)
		graphlets = append(graphlets, g)
	}
	graphlets = mergeCyclicGroups(job, graphlets)
	for _, g := range graphlets {
		finish(job, g)
	}
	resolveDependencies(job, graphlets)
	return graphlets, nil
}

// mergeCyclicGroups collapses strongly connected groups of graphlets into
// single graphlets. SQL planners emit plans whose graphlet dependencies are
// acyclic (the paper's case), but on an arbitrary DAG two pipeline
// components can carry barrier edges in both directions; gang scheduling
// them together is the sound fallback. Graphlets are re-indexed in the
// order their first member appeared.
func mergeCyclicGroups(job *dag.Job, graphlets []*Graphlet) []*Graphlet {
	owner := make(map[string]int)
	for _, g := range graphlets {
		for _, s := range g.Stages {
			owner[s] = g.Index
		}
	}
	// Union-find over graphlet indices; union endpoints of any barrier
	// edge cycle. Detect cycles by Tarjan-free iteration: union every
	// pair of graphlets that reach each other. With the small graphlet
	// counts of real jobs an O(G^2) reachability check is fine.
	adj := make(map[int]map[int]bool)
	for _, e := range job.Edges() {
		if e.Mode != dag.Barrier {
			continue
		}
		a, b := owner[e.From], owner[e.To]
		if a == b {
			continue
		}
		if adj[a] == nil {
			adj[a] = make(map[int]bool)
		}
		adj[a][b] = true
	}
	sortedNeighbors := func(set map[int]bool) []int {
		ns := make([]int, 0, len(set))
		for m := range set {
			ns = append(ns, m)
		}
		sort.Ints(ns)
		return ns
	}
	reach := func(from, to int) bool {
		seen := map[int]bool{from: true}
		stack := []int{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == to {
				return true
			}
			for _, m := range sortedNeighbors(adj[n]) {
				if !seen[m] {
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
		return false
	}
	group := make([]int, len(graphlets))
	for i := range group {
		group[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if group[i] != i {
			group[i] = find(group[i])
		}
		return group[i]
	}
	merged := false
	for a := range graphlets {
		for b := range adj[a] {
			if find(a) != find(b) && reach(b, a) {
				group[find(a)] = find(b)
				merged = true
			}
		}
	}
	if !merged {
		return graphlets
	}
	byRoot := make(map[int]*Graphlet)
	var out []*Graphlet
	for _, g := range graphlets {
		root := find(g.Index)
		t, ok := byRoot[root]
		if !ok {
			t = &Graphlet{Index: len(out)}
			byRoot[root] = t
			out = append(out, t)
		}
		t.Stages = append(t.Stages, g.Stages...)
	}
	// Merging may connect further cycles through the coarser graph;
	// recurse until a fixed point.
	return mergeCyclicGroups(job, out)
}

// scanAndAddStages is Algorithm 2: add the stage, then recursively absorb
// every not-yet-assigned neighbour reachable over a pipeline edge, in both
// the output and the input direction.
func scanAndAddStages(job *dag.Job, stage string, g *Graphlet, remaining map[string]bool) {
	g.Stages = append(g.Stages, stage)
	for _, e := range job.Out(stage) {
		if remaining[e.To] && e.Mode == dag.Pipeline {
			delete(remaining, e.To)
			scanAndAddStages(job, e.To, g, remaining)
		}
	}
	for _, e := range job.In(stage) {
		if remaining[e.From] && e.Mode == dag.Pipeline {
			delete(remaining, e.From)
			scanAndAddStages(job, e.From, g, remaining)
		}
	}
}

// finish computes derived fields: task total and trigger stage.
func finish(job *dag.Job, g *Graphlet) {
	for _, s := range g.Stages {
		g.Tasks += job.Stage(s).Tasks
	}
	// The trigger stage is the member with at least one outgoing barrier
	// edge; if several exist the topologically last one gates the most
	// dependants, so prefer the one with the most member predecessors
	// (deterministic tie-break by name).
	var candidates []string
	for _, s := range g.Stages {
		for _, e := range job.Out(s) {
			if e.Mode == dag.Barrier {
				candidates = append(candidates, s)
				break
			}
		}
	}
	if len(candidates) == 0 {
		return
	}
	sort.Strings(candidates)
	best, bestDepth := candidates[0], -1
	for _, c := range candidates {
		d := depthWithin(job, g, c)
		if d > bestDepth {
			best, bestDepth = c, d
		}
	}
	g.Trigger = best
}

// depthWithin returns the longest pipeline-path length from any member
// stage to the given stage, staying inside the graphlet.
func depthWithin(job *dag.Job, g *Graphlet, stage string) int {
	memo := make(map[string]int)
	var rec func(s string) int
	rec = func(s string) int {
		if d, ok := memo[s]; ok {
			return d
		}
		memo[s] = 0 // cycle guard; DAG makes this unreachable
		best := 0
		for _, e := range job.In(s) {
			if e.Mode == dag.Pipeline && g.Contains(e.From) {
				if d := rec(e.From) + 1; d > best {
					best = d
				}
			}
		}
		memo[s] = best
		return best
	}
	return rec(stage)
}

// resolveDependencies fills DependsOn: graphlet B depends on graphlet A when
// a barrier edge runs from a stage in A to a stage in B. The paper's
// submission rule is conservative — "a graphlet can be submitted only when
// all its input data are ready" — so every barrier in-edge is a dependency.
func resolveDependencies(job *dag.Job, graphlets []*Graphlet) {
	owner := make(map[string]int)
	for _, g := range graphlets {
		for _, s := range g.Stages {
			owner[s] = g.Index
		}
	}
	for _, g := range graphlets {
		seen := make(map[int]bool)
		for _, s := range g.Stages {
			for _, e := range job.In(s) {
				if e.Mode != dag.Barrier {
					continue
				}
				from := owner[e.From]
				if from != g.Index && !seen[from] {
					seen[from] = true
					g.DependsOn = append(g.DependsOn, from)
				}
			}
		}
		sort.Ints(g.DependsOn)
	}
}

// Find returns the graphlet containing the named stage, or nil.
func Find(graphlets []*Graphlet, stage string) *Graphlet {
	for _, g := range graphlets {
		if g.Contains(stage) {
			return g
		}
	}
	return nil
}

// SubmissionOrder returns graphlet indices in a valid submission order:
// a graphlet appears only after everything it depends on. Partition already
// emits graphlets in such an order (it walks stages topologically), but the
// function re-derives it defensively and errors on inconsistency.
func SubmissionOrder(graphlets []*Graphlet) ([]int, error) {
	done := make(map[int]bool, len(graphlets))
	var order []int
	for len(order) < len(graphlets) {
		progressed := false
		for _, g := range graphlets {
			if done[g.Index] {
				continue
			}
			ready := true
			for _, d := range g.DependsOn {
				if !done[d] {
					ready = false
					break
				}
			}
			if ready {
				done[g.Index] = true
				order = append(order, g.Index)
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("graphlet: cyclic graphlet dependencies")
		}
	}
	return order, nil
}
