package exp

import (
	"swift/internal/baseline"
	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/shuffle"
	"swift/internal/trace"
)

// Ablations beyond the paper's figures, for the design decisions DESIGN.md
// calls out.

// AblationShuffleRow compares one shuffle policy over a mixed workload.
type AblationShuffleRow struct {
	Policy  string
	MeanSec float64
}

// AblationAdaptiveShuffle runs a mixed small/medium/large shuffle workload
// under the adaptive policy and under each fixed mode. The adaptive policy
// should be at worst marginally behind the per-class winner and strictly
// better than the worst fixed mode — the justification for runtime
// selection (Section III-B).
func AblationAdaptiveShuffle(cfg Config) []AblationShuffleRow {
	type jobSpec struct {
		m, n    int
		perTask int64
	}
	specs := []jobSpec{
		{60, 60, 256 << 20},
		{200, 200, 1 << 30},
		{400, 400, 1 << 30},
		{1000, 1000, 1 << 30},
	}
	policies := []struct {
		name string
		opts core.Options
	}{
		{"adaptive", baseline.Swift()},
		{"direct", baseline.FixedShuffle(shuffle.Direct)},
		{"local", baseline.FixedShuffle(shuffle.Local)},
		{"remote", baseline.FixedShuffle(shuffle.Remote)},
	}
	ccfg := cluster.Paper2000()
	var rows []AblationShuffleRow
	for _, p := range policies {
		var total float64
		count := 0
		for i, s := range specs {
			job := trace.ShuffleCategoryJob(p.name+"-"+string(rune('a'+i)), s.m, s.n, s.perTask, 2)
			jr, _ := cfg.runOne(job, ccfg, p.opts, cfg.Seed)
			if jr != nil && jr.Completed {
				total += jr.Duration()
				count++
			}
		}
		rows = append(rows, AblationShuffleRow{Policy: p.name, MeanSec: total / float64(count)})
	}
	return rows
}

// AblationPartitionRow compares one partitioning policy on a trace.
type AblationPartitionRow struct {
	Policy      string
	MakespanSec float64
	MeanIdle    float64 // mean task IdleRatio
}

// AblationPartition replays one saturated trace under the three DAG
// partitioning strategies with everything else fixed (adaptive shuffle,
// fine-grained recovery): Swift's graphlets, Spark-style per-stage
// scheduling, and JetScope-style whole-job gangs. Graphlets should match
// per-stage on utilization while avoiding its per-stage scheduling latency,
// and beat whole-job on both.
func AblationPartition(cfg Config) []AblationPartitionRow {
	tr := fig10Trace(cfg)
	policies := []struct {
		name string
		opts core.Options
	}{
		{"graphlet", baseline.Swift()},
		{"per-stage", func() core.Options {
			o := core.DefaultOptions()
			o.Partition = core.PerStagePartition
			return o
		}()},
		{"whole-job", baseline.JetScope()},
	}
	var rows []AblationPartitionRow
	for _, p := range policies {
		res := cfg.runTrace(tr, fig10Cluster(), p.opts, cfg.Seed)
		var idle []float64
		for _, jr := range res.SortedJobs() {
			if !jr.Completed {
				continue
			}
			for _, s := range jr.Samples {
				idle = append(idle, s.IdleRatio())
			}
		}
		mean := 0.0
		for _, x := range idle {
			mean += x
		}
		if len(idle) > 0 {
			mean /= float64(len(idle))
		}
		rows = append(rows, AblationPartitionRow{
			Policy:      p.name,
			MakespanSec: res.Makespan.Seconds(),
			MeanIdle:    mean,
		})
	}
	return rows
}
