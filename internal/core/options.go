package core

import (
	"swift/internal/dag"
	"swift/internal/graphlet"
	"swift/internal/obs"
	"swift/internal/sched"
	"swift/internal/shuffle"
)

// PartitionPolicy turns a job DAG into schedulable graphlets. Swift's
// default is the shuffle-mode-aware Algorithm 1; the baselines substitute
// whole-job gang scheduling (JetScope), per-stage scheduling (Spark) or
// shuffle-size bubbles (Bubble Execution).
type PartitionPolicy func(*dag.Job) ([]*graphlet.Graphlet, error)

// GraphletPartition is Swift's partitioner (Section III-A).
func GraphletPartition(j *dag.Job) ([]*graphlet.Graphlet, error) { return graphlet.Partition(j) }

// WholeJobPartition treats the entire job as a single gang-scheduled unit,
// as JetScope and Impala do: nothing starts until every executor the job
// needs is free (see graphlet.Graphlet.Gang).
func WholeJobPartition(j *dag.Job) ([]*graphlet.Graphlet, error) {
	topo, err := j.TopoOrder()
	if err != nil {
		return nil, err
	}
	g := &graphlet.Graphlet{Index: 0, Stages: topo, Tasks: j.NumTasks(), Gang: true}
	return []*graphlet.Graphlet{g}, nil
}

// PerStagePartition schedules every stage independently, the Spark model.
func PerStagePartition(j *dag.Job) ([]*graphlet.Graphlet, error) {
	topo, err := j.TopoOrder()
	if err != nil {
		return nil, err
	}
	gs := make([]*graphlet.Graphlet, 0, len(topo))
	for i, s := range topo {
		gs = append(gs, &graphlet.Graphlet{Index: i, Stages: []string{s}, Tasks: j.Stage(s).Tasks})
	}
	for _, g := range gs {
		seen := make(map[int]bool)
		for _, e := range j.In(g.Stages[0]) {
			d := j.TopoIndex(e.From) // stage i is graphlet i
			if !seen[d] {
				seen[d] = true
				g.DependsOn = append(g.DependsOn, d)
			}
		}
		for _, e := range j.Out(g.Stages[0]) {
			if len(e.To) > 0 {
				g.Trigger = g.Stages[0]
			}
		}
	}
	return gs, nil
}

// ShufflePolicy chooses the shuffle mode for one edge. crossing reports
// whether the edge crosses a graphlet boundary.
type ShufflePolicy func(edgeSize int, bytes int64, crossing bool) shuffle.Mode

// AdaptiveShuffle is Swift's runtime selection by shuffle edge size.
func AdaptiveShuffle(t shuffle.Thresholds) ShufflePolicy {
	return func(edgeSize int, _ int64, _ bool) shuffle.Mode { return t.Select(edgeSize) }
}

// FixedShuffle always uses one mode (the Fig. 12 ablation arms).
func FixedShuffle(m shuffle.Mode) ShufflePolicy {
	return func(int, int64, bool) shuffle.Mode { return m }
}

// BubbleShuffle pipelines inside a bubble and spills to disk across bubble
// boundaries, the Bubble Execution model.
func BubbleShuffle() ShufflePolicy {
	return func(_ int, _ int64, crossing bool) shuffle.Mode {
		if crossing {
			return shuffle.Disk
		}
		return shuffle.Direct
	}
}

// RecoveryPolicy selects the failure-handling strategy.
type RecoveryPolicy int

const (
	// FineGrained is Swift's graphlet-based recovery (Section IV-B).
	FineGrained RecoveryPolicy = iota
	// JobRestart re-runs the whole job on any failure, the baseline the
	// paper compares against in Figs. 14 and 15.
	JobRestart
)

// Options configures a Controller. The zero value is Swift's production
// configuration: NewController resolves a nil Partition to
// GraphletPartition, a nil Shuffle to AdaptiveShuffle over
// shuffle.DefaultThresholds and a nil Policy to sched.FIFO{}.
type Options struct {
	Partition PartitionPolicy
	Shuffle   ShufflePolicy
	Recovery  RecoveryPolicy
	// ColdLaunch charges the per-stage package-download/executor-launch
	// cost to every first task wave (Spark semantics); Swift's executors
	// are pre-launched.
	ColdLaunch bool
	// Policy is the pluggable scheduling policy: serve order and per-item
	// executor caps (JobOrder), per-tenant deserved shares (Proportion)
	// and gang-aware preemption (Preempt). Nil means sched.FIFO{}, the
	// arrival-order behaviour; it goes through the same scheduling round as
	// every policy (its nil plan is "queue order, uncapped").
	Policy sched.Policy
	// Obs records spans and events for the observability plane. Nil (the
	// default) disables recording; the controller's decisions are identical
	// either way.
	Obs *obs.Recorder
	// ShuffleReplicas is the Cache-Worker replication factor R for finished
	// tasks' buffered outputs. Values ≤ 1 (the default) keep the
	// single-copy behaviour byte-identical to v1; with R > 1 the controller
	// tracks R machine homes per finished task, instructs drivers to copy
	// (ActReplicate), and a Cache Worker or machine loss promotes a
	// surviving replica instead of recomputing the producer.
	ShuffleReplicas int
}

// DefaultOptions returns Swift's production configuration: graphlet
// partitioning, adaptive shuffle, fine-grained recovery, FIFO. It is the
// zero Options — NewController is where the nil policies resolve — spelled
// as a call so a preset reads "the default, then what differs".
func DefaultOptions() Options { return Options{} }
