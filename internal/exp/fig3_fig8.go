package exp

import (
	"swift/internal/baseline"
	"swift/internal/cluster"
	"swift/internal/metrics"
	"swift/internal/trace"
)

// Fig3Row is one bar of Fig. 3: the average IdleRatio of one production
// cluster when gang scheduling is adopted.
type Fig3Row struct {
	Cluster      string
	IdleRatioPct float64 // four-quartile average, percent
}

// Fig3IdleRatio measures the IdleRatio of trace jobs under whole-job gang
// scheduling on four cluster profiles, reproducing Fig. 3. The paper's
// clusters differ in workload mix; here each profile replays a trace with a
// different seed (and thus job mix). The paper's values are rows of
// Fidelity.
func Fig3IdleRatio(cfg Config) []Fig3Row {
	var rows []Fig3Row
	for i := 0; i < 4; i++ {
		tr := trace.Generate(trace.Spec{
			Jobs:          500,
			Seed:          cfg.Seed + int64(i)*101,
			ArrivalWindow: 120,
		})
		res := cfg.runTrace(tr, cluster.Paper100(), baseline.JetScope(), cfg.Seed+int64(i))
		// Per-job mean task IdleRatio, then the four-quartile average
		// across jobs (the paper reports per-cluster averages of job
		// measurements).
		var perJob []float64
		for _, jr := range res.SortedJobs() {
			if !jr.Completed || len(jr.Samples) == 0 {
				continue
			}
			var xs []float64
			for _, s := range jr.Samples {
				xs = append(xs, s.IdleRatio())
			}
			perJob = append(perJob, metrics.Mean(xs))
		}
		q := metrics.FourQuartiles(perJob)
		rows = append(rows, Fig3Row{
			Cluster:      string(rune('1' + i)),
			IdleRatioPct: q.Mid() * 100,
		})
	}
	return rows
}

// Fig8Stats summarises the generated production trace the way Fig. 8
// characterises the real one.
type Fig8Stats struct {
	Jobs                int // completed
	Traced              int // in the trace
	MeanRuntimeSec      float64
	FracRuntimeUnder120 float64
	FracTasksUnder80    float64
	FracStagesUnder4    float64
}

// Fig8TraceCharacteristics replays the 2,000-job trace on Swift and reports
// the measured job-runtime and size distributions, which Fidelity holds to
// the paper's.
func Fig8TraceCharacteristics(cfg Config) Fig8Stats {
	tr := trace.Generate(trace.Spec{Jobs: 2000, Seed: cfg.Seed, ArrivalWindow: 500})
	res := cfg.runTrace(tr, cluster.Paper100(), baseline.Swift(), cfg.Seed)
	var runtimes, tasks, stages []float64
	for _, j := range tr.Jobs {
		jr := res.Jobs[j.Job.ID]
		if jr == nil || !jr.Completed {
			continue
		}
		runtimes = append(runtimes, jr.Duration())
		tasks = append(tasks, float64(j.Job.NumTasks()))
		stages = append(stages, float64(j.Job.NumStages()))
	}
	return Fig8Stats{
		Jobs:                len(runtimes),
		Traced:              len(tr.Jobs),
		MeanRuntimeSec:      metrics.Mean(runtimes),
		FracRuntimeUnder120: metrics.FractionBelow(runtimes, 120),
		FracTasksUnder80:    metrics.FractionBelow(tasks, 80),
		FracStagesUnder4:    metrics.FractionBelow(stages, 4),
	}
}
