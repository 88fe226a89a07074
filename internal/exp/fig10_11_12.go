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
	// SpeedupOverJetScope is makespan(JetScope)/makespan(system); the
	// paper reports 2.44× for Swift and 1.98× for Bubble Execution.
	SpeedupOverJetScope map[string]float64
}

// Fig10Systems are the compared schedulers.
var Fig10Systems = []string{"JetScope", "Bubble", "Swift"}

// runFig10System replays tr on the Fig. 10 cluster under one of
// Fig10Systems.
func (c Config) runFig10System(tr *trace.Trace, sys string) *simrun.Results {
	opts, err := baseline.System(sys)
	if err != nil {
		panic(err) // Fig10Systems names only known systems
	}
	return c.runTrace(tr, c.fig10Cluster(), opts, c.Seed)
}

// fig10Cluster is the replay cluster: the paper's Fig. 10 shows ~3,000
// running executors peak on the 100-node cluster, and the trace is
// replayed as a batch ("Swift and Bubble Execution can finish all jobs in
// 240s and 296s"), so the scheduler runs saturated — which is exactly
// where whole-job gang scheduling falls apart.
func (c Config) fig10Cluster() cluster.Config {
	ccfg := c.cluster100()
	ccfg.ExecutorsPerMachine = 30
	if c.Reduced {
		ccfg.Machines = 70 // keep capacity above the largest gang (2,000 tasks)
	}
	return ccfg
}

// Fig10ExecutorTimeline replays the production trace on the 100-node
// cluster under JetScope, Bubble Execution and Swift, recording the number
// of running executors over time.
func Fig10ExecutorTimeline(cfg Config) Fig10Result {
	out := Fig10Result{
		Series:              make(map[string][]metrics.SeriesPoint),
		Makespan:            make(map[string]float64),
		SpeedupOverJetScope: make(map[string]float64),
	}
	tr := fig10Trace(cfg)
	for _, sys := range Fig10Systems {
		res := cfg.runFig10System(tr, sys)
		out.Makespan[sys] = res.Makespan.Seconds()
		out.Series[sys] = res.ExecSeries.Sample(res.Makespan.Seconds(), 10)
	}
	for _, sys := range Fig10Systems {
		out.SpeedupOverJetScope[sys] = out.Makespan["JetScope"] / out.Makespan[sys]
	}
	return out
}

// Fig11Result holds, per system, the distribution of job latencies
// normalised to Swift's latency for the same job (Fig. 11).
type Fig11Result struct {
	// Ratios maps system -> sorted per-job latency ratios vs Swift.
	Ratios map[string][]float64
	// FracJetScopeOver2x: the paper reports "more than 60% of jobs are
	// with a latency 2× greater than that of Swift" for JetScope.
	FracJetScopeOver2x float64
	// MeanBubbleRatio: the paper's abstract reports Swift outperforming
	// Bubble Execution by 1.23× on latency.
	MeanBubbleRatio float64
}

// fig10Trace is the batch-replayed production trace: runtimes capped at
// the Fig. 8 "90% under 120 s" knee so a single straggler's critical path
// does not mask the schedulers' differences.
func fig10Trace(cfg Config) *trace.Trace {
	return trace.Generate(trace.Spec{Jobs: cfg.traceJobs(2000), Seed: cfg.Seed, RuntimeCap: 120})
}

// Fig11LatencyCDF replays the trace under the three systems and normalises
// each job's latency to Swift's.
func Fig11LatencyCDF(cfg Config) Fig11Result {
	tr := fig10Trace(cfg)
	durations := make(map[string]map[string]float64) // system -> job -> sec
	for _, sys := range Fig10Systems {
		res := cfg.runFig10System(tr, sys)
		d := make(map[string]float64)
		for id, jr := range res.Jobs {
			if jr.Completed {
				d[id] = jr.Duration()
			}
		}
		durations[sys] = d
	}
	out := Fig11Result{Ratios: make(map[string][]float64)}
	for _, sys := range []string{"JetScope", "Bubble"} {
		var ratios []float64
		for id, sw := range durations["Swift"] {
			if other, ok := durations[sys][id]; ok && sw > 0 {
				ratios = append(ratios, other/sw)
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
// under each fixed shuffle mode on the 2,000-node cluster. Paper: small —
// Direct best (Local +4%, Remote +3%); medium — Remote best (Direct +25%,
// Local +3.8%); large — Local best (Direct +108.3%, Remote +47.9%).
func Fig12ShuffleModes(cfg Config) []Fig12Cell {
	type category struct {
		class   shuffle.SizeClass
		m, n    int
		perTask int64
		proc    float64
	}
	cats := []category{
		{shuffle.SmallShuffle, 60, 60, 256 << 20, 2},
		{shuffle.MediumShuffle, 200, 200, 1 << 30, 2},
		{shuffle.LargeShuffle, 1000, 1000, 1 << 30, 2},
	}
	if cfg.Reduced {
		cats = []category{
			{shuffle.SmallShuffle, 30, 30, 256 << 20, 2},
			{shuffle.MediumShuffle, 150, 150, 1 << 30, 2},
			{shuffle.LargeShuffle, 400, 400, 1 << 30, 2},
		}
	}
	jobsPer := 6
	if cfg.Reduced {
		jobsPer = 2
	}
	ccfg := cfg.cluster2000()
	var cells []Fig12Cell
	for _, cat := range cats {
		times := make(map[shuffle.Mode]float64)
		for _, mode := range []shuffle.Mode{shuffle.Direct, shuffle.Local, shuffle.Remote} {
			var total float64
			for k := 0; k < jobsPer; k++ {
				job := trace.ShuffleCategoryJob(
					cat.class.String()+"-"+mode.String()+"-"+string(rune('a'+k)),
					cat.m, cat.n, cat.perTask, cat.proc)
				jr, _ := cfg.runOne(job, ccfg, baseline.FixedShuffle(mode), cfg.Seed+int64(k))
				total += jr.Duration()
			}
			times[mode] = total / float64(jobsPer)
		}
		base := times[shuffle.Direct]
		for _, mode := range []shuffle.Mode{shuffle.Direct, shuffle.Local, shuffle.Remote} {
			cells = append(cells, Fig12Cell{Class: cat.class, Mode: mode, Normalized: times[mode] / base})
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
