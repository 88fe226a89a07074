package exp

import (
	"fmt"
	"math/rand"
	"sort"

	"swift/internal/baseline"
	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/metrics"
	"swift/internal/sim"
	"swift/internal/tpch"
	"swift/internal/trace"
)

// Fig14Row is one injection point of Fig. 14: a failure injected into TPC-H
// Q13 at a normalised time, with the resulting job slowdown under Swift's
// fine-grained recovery and under whole-job restart.
type Fig14Row struct {
	InjectAtPct        int // normalised injection time (paper: 20..100)
	Stage              string
	SwiftSlowdownPct   float64
	RestartSlowdownPct float64
}

// Fig14Injections are the published (time, stage) pairs: failures at
// normalised times 20, 40, 60, 80, 100 into M2, J3, R4, R5, R6.
var Fig14Injections = []struct {
	Pct   int
	Stage string
}{
	{20, "M2"}, {40, "J3"}, {60, "R4"}, {80, "R5"}, {100, "R6"},
}

// Fig14FaultInjection reproduces Fig. 14: the non-failure Q13 execution
// time is the baseline (normalised to 100); one failure is injected per
// run. The paper's claims about both slowdowns are rows of Fidelity.
func Fig14FaultInjection(cfg Config) []Fig14Row {
	ccfg := cluster.Paper100()
	clean, _ := cfg.runOne(tpch.Q13(), ccfg, baseline.Swift(), cfg.Seed)
	base := clean.Duration()

	run := func(opts core.Options, pct int, stage string) float64 {
		r := cfg.sim(ccfg, opts, cfg.Seed)
		job := tpch.Q13()
		r.SubmitAt(0, job)
		// Injections at 100 land just inside the run (the paper's time
		// axis normalises the non-failure completion to 100).
		at := sim.FromSeconds(base * float64(pct) / 100 * 0.98)
		r.InjectTaskFailureAt(at, job.ID, stage, core.FailCrash)
		res := r.Run()
		jr := res.Jobs[job.ID]
		if !jr.Completed {
			panic(fmt.Sprintf("exp: fig14 run (%d%%, %s) failed", pct, stage))
		}
		return jr.Duration()
	}

	var rows []Fig14Row
	for _, inj := range Fig14Injections {
		swift := run(baseline.Swift(), inj.Pct, inj.Stage)
		restart := run(baseline.JobRestart(baseline.Swift()), inj.Pct, inj.Stage)
		rows = append(rows, Fig14Row{
			InjectAtPct:        inj.Pct,
			Stage:              inj.Stage,
			SwiftSlowdownPct:   (swift/base - 1) * 100,
			RestartSlowdownPct: (restart/base - 1) * 100,
		})
	}
	return rows
}

// Fig15Result compares end-to-end trace execution with realistic failures
// under Swift recovery vs job restart, normalised to the failure-free run.
type Fig15Result struct {
	SwiftSlowdownPct   float64
	RestartSlowdownPct float64
	SwiftQuartiles     metrics.Quartiles
	RestartQuartiles   metrics.Quartiles
}

// Fig15TraceFailures replays the production trace three times: without
// failures (baseline), with failures under fine-grained recovery, and with
// the same failures under job restart. Failure times follow the Fig. 8(a)
// distribution; roughly half the jobs experience one failure.
func Fig15TraceFailures(cfg Config) Fig15Result {
	tr := trace.Generate(trace.Spec{Jobs: 1000, Seed: cfg.Seed, ArrivalWindow: 120})
	ccfg := cluster.Paper100()

	type injection struct {
		job   string
		stage string
		after float64 // seconds after submission
	}

	run := func(opts core.Options, injections []injection) map[string]float64 {
		r := cfg.sim(ccfg, opts, cfg.Seed)
		at := make(map[string]float64)
		for _, j := range tr.Jobs {
			r.SubmitAt(sim.FromSeconds(j.SubmitAt), j.Job)
			at[j.Job.ID] = j.SubmitAt
		}
		for _, inj := range injections {
			r.InjectTaskFailureAt(sim.FromSeconds(at[inj.job]+inj.after), inj.job, inj.stage, core.FailCrash)
		}
		res := r.Run()
		out := make(map[string]float64)
		for id, jr := range res.Jobs {
			if jr.Completed {
				out[id] = jr.Duration()
			}
		}
		return out
	}

	baselineDur := run(baseline.Swift(), nil)

	// Failure times follow the Fig. 8(a) curve but are clamped inside
	// each job's actual execution window so the failure really occurs
	// during the run (the paper regenerates failures from the failed-job
	// runtime distribution, which is conditioned on jobs that failed
	// while running).
	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	var injections []injection
	for _, j := range tr.Jobs {
		if rng.Float64() > 0.5 {
			continue
		}
		dur, ok := baselineDur[j.Job.ID]
		if !ok {
			continue
		}
		after := trace.FailureTime(rng)
		if cap := 0.85 * dur; after > cap {
			after = cap * (0.4 + 0.6*rng.Float64())
		}
		stages := j.Job.StageNames()
		injections = append(injections, injection{
			job:   j.Job.ID,
			stage: stages[rng.Intn(len(stages))],
			after: after,
		})
	}

	swiftDur := run(baseline.Swift(), injections)
	restartDur := run(baseline.JobRestart(baseline.Swift()), injections)

	ratios := func(d map[string]float64) []float64 {
		ids := make([]string, 0, len(baselineDur))
		for id := range baselineDur {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var out []float64
		for _, id := range ids {
			if v, ok := d[id]; ok && baselineDur[id] > 0 {
				out = append(out, v/baselineDur[id]*100)
			}
		}
		return out
	}
	sw, re := ratios(swiftDur), ratios(restartDur)
	swQ, reQ := metrics.FourQuartiles(sw), metrics.FourQuartiles(re)
	return Fig15Result{
		SwiftSlowdownPct:   metrics.Mean(sw) - 100,
		RestartSlowdownPct: metrics.Mean(re) - 100,
		SwiftQuartiles:     swQ,
		RestartQuartiles:   reQ,
	}
}

// Fig16Row is one point of the strong-scaling curve.
type Fig16Row struct {
	Executors int
	Speedup   float64 // T(10k) / T(executors)
	Ideal     float64 // executors / 10k
}

// Fig16Scalability replays a fixed workload with growing executor counts
// (10k → 140k), normalising end-to-end time to the 10k run. The paper's
// "near-linear" is a row of Fidelity.
func Fig16Scalability(cfg Config) []Fig16Row {
	return fig16Scalability(cfg, []int{10000, 20000, 40000, 80000, 140000}, 12000, 5, 90)
}

// fig16Scalability runs one strong-scaling sweep: a trace of jobs jobs,
// with runtimes scaled by scale and capped at cap seconds, replayed on
// each of counts executors.
func fig16Scalability(cfg Config, counts []int, jobs int, scale, cap float64) []Fig16Row {
	const execsPerMachine = 60
	tr := trace.Generate(trace.Spec{Jobs: jobs, Seed: cfg.Seed, Scale: scale, RuntimeCap: cap})
	var rows []Fig16Row
	var baseMakespan float64
	for i, n := range counts {
		ccfg := cluster.Paper2000()
		ccfg.ExecutorsPerMachine = execsPerMachine
		ccfg.Machines = (n + execsPerMachine - 1) / execsPerMachine
		res := cfg.runTrace(tr, ccfg, baseline.Swift(), cfg.Seed)
		mk := res.Makespan.Seconds()
		if i == 0 {
			baseMakespan = mk
		}
		rows = append(rows, Fig16Row{
			Executors: n,
			Speedup:   baseMakespan / mk,
			Ideal:     float64(n) / float64(counts[0]),
		})
	}
	return rows
}
