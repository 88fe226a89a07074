// Package baseline configures the comparison systems of the paper's
// evaluation on top of the shared controller and simulator: Spark
// (per-stage scheduling, disk-based shuffle, cold executor launch),
// JetScope (whole-job gang scheduling, fine-grained recovery) and Bubble
// Execution (shuffle-data-size bubbles, disk shuffle between bubbles).
// Because all four systems run the same cost model and differ only in the
// policies below, measured differences isolate the scheduling and shuffle
// decisions the paper credits.
package baseline

import (
	"fmt"
	"sort"
	"strings"

	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/graphlet"
	"swift/internal/shuffle"
)

// Swift returns Swift's own production configuration (graphlet
// partitioning, adaptive in-network shuffle, fine-grained recovery).
func Swift() core.Options { return core.DefaultOptions() }

// Spark models Spark: every stage is an independent scheduling unit, all
// shuffle goes through files on disk, and task launching pays package
// download plus executor start ("launching all the critical tasks takes
// over 71s" in Fig. 9b).
func Spark() core.Options {
	o := core.DefaultOptions()
	o.Partition = core.PerStagePartition
	o.Shuffle = core.FixedShuffle(shuffle.Disk)
	o.ColdLaunch = true
	return o
}

// JetScope models JetScope/Impala-style interactive engines: the whole job
// is gang scheduled as one unit (nothing starts until every executor is
// available, and a waiting job blocks the queue behind it), with
// memory-based streaming between vertices and fine-grained recovery. The
// partition is the whole difference from Swift: the unit it emits carries
// the gang property.
func JetScope() core.Options {
	o := core.DefaultOptions()
	o.Partition = core.WholeJobPartition
	return o
}

// DefaultBubbleTasks caps a bubble's gang size in BubblePartition; the
// published system sizes bubbles to fit guaranteed resources.
const DefaultBubbleTasks = 512

// bubbleCutBytes is the shuffle-edge size at which Bubble cuts a bubble.
const bubbleCutBytes = 96 << 20

// Bubble models Bubble Execution: the DAG is divided into "bubbles" by
// shuffle data size and resource demand, pipelined channels run inside a
// bubble, and inter-bubble data is spilled to disk.
func Bubble() core.Options {
	o := core.DefaultOptions()
	o.Partition = BubblePartition(DefaultBubbleTasks, bubbleCutBytes)
	o.Shuffle = core.BubbleShuffle()
	return o
}

// System returns the configuration of a compared system by name, in any
// case: swift, spark, jetscope or bubble.
func System(name string) (core.Options, error) {
	switch strings.ToLower(name) {
	case "swift":
		return Swift(), nil
	case "spark":
		return Spark(), nil
	case "jetscope":
		return JetScope(), nil
	case "bubble":
		return Bubble(), nil
	}
	return core.Options{}, fmt.Errorf("unknown system %q", name)
}

// BubblePartition returns the Bubble Execution partitioner: walk stages in
// topological order and greedily grow the current bubble, cutting an edge
// when (a) it carries at least cutBytes of shuffle data, or (b) absorbing
// the consumer would push the bubble past maxBubbleTasks. The paper notes
// this data-size-driven scheme has "high partitioning overhead and
// long-time waiting" compared with Swift's shuffle-mode heuristic; here it
// also means barrier edges can end up inside a bubble, whose consumers
// then hold executors idle.
func BubblePartition(maxBubbleTasks int, cutBytes int64) core.PartitionPolicy {
	if maxBubbleTasks <= 0 {
		maxBubbleTasks = DefaultBubbleTasks
	}
	return func(job *dag.Job) ([]*graphlet.Graphlet, error) {
		topo, err := job.TopoOrder()
		if err != nil {
			return nil, err
		}
		bubbleOf := make(map[string]int, len(topo))
		sizes := make(map[int]int)
		next := 0
		for _, s := range topo {
			tasks := job.Stage(s).Tasks
			// A stage may only join the newest bubble among its
			// producers: joining an older one while another producer
			// sits in a newer bubble would make the bubble dependency
			// graph cyclic and deadlock submission.
			maxB := -1
			for _, e := range job.In(s) {
				if b := bubbleOf[e.From]; b > maxB {
					maxB = b
				}
			}
			best := -1
			if maxB >= 0 && sizes[maxB]+tasks <= maxBubbleTasks {
				for _, e := range job.In(s) {
					if bubbleOf[e.From] != maxB {
						continue
					}
					if cutBytes > 0 && e.Bytes >= cutBytes {
						continue
					}
					best = maxB // a pipelineable edge from the newest bubble
					break
				}
			}
			if best < 0 {
				best = next
				next++
			}
			bubbleOf[s] = best
			sizes[best] += tasks
		}
		// Materialise bubbles in first-appearance order.
		idx := make(map[int]int)
		var gs []*graphlet.Graphlet
		for _, s := range topo {
			b := bubbleOf[s]
			gi, ok := idx[b]
			if !ok {
				gi = len(gs)
				idx[b] = gi
				gs = append(gs, &graphlet.Graphlet{Index: gi})
			}
			g := gs[gi]
			g.Stages = append(g.Stages, s)
			g.Tasks += job.Stage(s).Tasks
		}
		// Dependencies and triggers from crossing edges.
		owner := make(map[string]int)
		for _, g := range gs {
			for _, s := range g.Stages {
				owner[s] = g.Index
			}
		}
		for _, g := range gs {
			seen := make(map[int]bool)
			for _, s := range g.Stages {
				for _, e := range job.In(s) {
					if d := owner[e.From]; d != g.Index && !seen[d] {
						seen[d] = true
						g.DependsOn = append(g.DependsOn, d)
					}
				}
				for _, e := range job.Out(s) {
					if owner[e.To] != g.Index {
						g.Trigger = s
					}
				}
			}
			sort.Ints(g.DependsOn)
		}
		return gs, nil
	}
}

// JobRestart wraps any configuration with the whole-job-restart recovery
// policy (the Figs. 14/15 baseline).
func JobRestart(o core.Options) core.Options {
	o.Recovery = core.JobRestart
	return o
}

// FixedShuffle wraps Swift with a pinned shuffle mode (Fig. 12's arms).
func FixedShuffle(m shuffle.Mode) core.Options {
	o := core.DefaultOptions()
	o.Shuffle = core.FixedShuffle(m)
	return o
}
