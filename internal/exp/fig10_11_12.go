package exp

import (
	"sort"

	"swift/internal/baseline"
	"swift/internal/cluster"
	"swift/internal/metrics"
	"swift/internal/shuffle"
	"swift/internal/simrun"
	"swift/internal/trace"
)

// Fig10Result holds the running-executor timelines and makespans of the
// trace replay under the three schedulers (Fig. 10).
type Fig10Result struct {
	Series   map[string][]metrics.SeriesPoint // system -> sampled timeline
	Makespan map[string]float64               // seconds to finish all jobs
}

// Fig10Systems are the compared schedulers.
var Fig10Systems = []string{"JetScope", "Bubble", "Swift"}

// fig10Replays replays fig10Trace on the Fig. 10 cluster under each of
// Fig10Systems.
func fig10Replays(cfg Config) map[string]*simrun.Results {
	tr := fig10Trace(cfg)
	out := make(map[string]*simrun.Results, len(Fig10Systems))
	for _, sys := range Fig10Systems {
		opts, err := baseline.System(sys)
		if err != nil {
			panic(err) // Fig10Systems names only known systems
		}
		out[sys] = cfg.runTrace(tr, fig10Cluster(), opts, cfg.Seed)
	}
	return out
}

// fig10Cluster is the replay cluster: the paper's Fig. 10 shows ~3,000
// running executors peak on the 100-node cluster, and the trace is
// replayed as a batch (the paper reports when each system finishes all
// jobs), so the scheduler runs saturated — which is exactly where
// whole-job gang scheduling falls apart.
func fig10Cluster() cluster.Config {
	ccfg := cluster.Paper100()
	ccfg.ExecutorsPerMachine = 30
	return ccfg
}

// Fig10ExecutorTimeline replays the production trace on the 100-node
// cluster under JetScope, Bubble Execution and Swift, recording the number
// of running executors over time.
func Fig10ExecutorTimeline(cfg Config) Fig10Result {
	out := Fig10Result{Series: make(map[string][]metrics.SeriesPoint), Makespan: make(map[string]float64)}
	for sys, res := range fig10Replays(cfg) {
		out.Makespan[sys] = res.Makespan.Seconds()
		out.Series[sys] = res.ExecSeries.Sample(res.Makespan.Seconds(), 10)
	}
	return out
}

// Fig11Result holds, per system, the distribution of job latencies
// normalised to Swift's latency for the same job (Fig. 11).
type Fig11Result struct {
	// Ratios maps system -> sorted per-job latency ratios vs Swift.
	Ratios map[string][]float64
	// FracJetScopeOver2x is the share of jobs JetScope runs more than 2×
	// slower than Swift.
	FracJetScopeOver2x float64
	// MeanBubbleRatio is the mean of Ratios["Bubble"]. The paper's values
	// of both are rows of Fidelity.
	MeanBubbleRatio float64
}

// fig10Trace is the batch-replayed production trace: runtimes capped at
// the Fig. 8 "90% under 120 s" knee so a single straggler's critical path
// does not mask the schedulers' differences.
func fig10Trace(cfg Config) *trace.Trace {
	return trace.Generate(trace.Spec{Jobs: 2000, Seed: cfg.Seed, RuntimeCap: 120})
}

// Fig11LatencyCDF replays the trace under the three systems and normalises
// each job's latency to Swift's.
func Fig11LatencyCDF(cfg Config) Fig11Result {
	reps := fig10Replays(cfg)
	out := Fig11Result{Ratios: make(map[string][]float64)}
	for _, sys := range []string{"JetScope", "Bubble"} {
		var ratios []float64
		for id, sw := range reps["Swift"].Jobs {
			if other := reps[sys].Jobs[id]; other != nil && other.Completed && sw.Completed && sw.Duration() > 0 {
				ratios = append(ratios, other.Duration()/sw.Duration())
			}
		}
		sort.Float64s(ratios)
		out.Ratios[sys] = ratios
	}
	js := out.Ratios["JetScope"]
	if len(js) > 0 {
		out.FracJetScopeOver2x = 1 - metrics.FractionBelow(js, 2)
	}
	out.MeanBubbleRatio = metrics.Mean(out.Ratios["Bubble"])
	return out
}

// Fig12Cell is one bar of Fig. 12: the average job execution time of one
// shuffle-size category under one fixed shuffle mode, normalised to the
// category's Direct Shuffle time.
type Fig12Cell struct {
	Class      shuffle.SizeClass
	Mode       shuffle.Mode
	Normalized float64
}

// Fig12ShuffleModes replays shuffle-heavy jobs of the three size classes
// under each fixed shuffle mode on the 2,000-node cluster. The paper's
// winners are Direct, Remote and Local; its margins are rows of Fidelity.
func Fig12ShuffleModes(cfg Config) []Fig12Cell {
	classes := []shuffle.SizeClass{shuffle.SmallShuffle, shuffle.MediumShuffle, shuffle.LargeShuffle}
	perTask := []int64{256 << 20, 1 << 30, 1 << 30} // bytes each map task writes
	tasks, jobsPer := []int{60, 200, 1000}, 6       // map = reduce tasks, per class
	ccfg := cluster.Paper2000()
	var cells []Fig12Cell
	for i, class := range classes {
		times := make(map[shuffle.Mode]float64)
		for _, mode := range []shuffle.Mode{shuffle.Direct, shuffle.Local, shuffle.Remote} {
			var total float64
			for k := 0; k < jobsPer; k++ {
				job := trace.ShuffleCategoryJob(class.String()+"-"+mode.String()+"-"+string(rune('a'+k)), tasks[i], tasks[i], perTask[i], 2) // 2 s of processing a task
				jr, _ := cfg.runOne(job, ccfg, baseline.FixedShuffle(mode), cfg.Seed+int64(k))
				total += jr.Duration()
			}
			times[mode] = total / float64(jobsPer)
		}
		base := times[shuffle.Direct]
		for _, mode := range []shuffle.Mode{shuffle.Direct, shuffle.Local, shuffle.Remote} {
			cells = append(cells, Fig12Cell{Class: class, Mode: mode, Normalized: times[mode] / base})
		}
	}
	return cells
}

// Fig12Best returns the winning mode per size class from the cells.
func Fig12Best(cells []Fig12Cell) map[shuffle.SizeClass]shuffle.Mode {
	best := make(map[shuffle.SizeClass]shuffle.Mode)
	bestV := make(map[shuffle.SizeClass]float64)
	for _, c := range cells {
		if v, ok := bestV[c.Class]; !ok || c.Normalized < v {
			bestV[c.Class] = c.Normalized
			best[c.Class] = c.Mode
		}
	}
	return best
}
