// Command swifttrace generates production-like job traces (calibrated to
// the paper's Fig. 8) and optionally replays them on the simulated Swift
// deployment.
//
// Usage:
//
//	swifttrace -jobs 2000 -seed 7            # print trace statistics
//	swifttrace -jobs 500 -replay -machines 50
package main

import (
	"flag"
	"fmt"
	"os"

	"swift/internal/baseline"
	"swift/internal/cluster"
	"swift/internal/metrics"
	"swift/internal/obs"
	"swift/internal/sim"
	"swift/internal/simrun"
	"swift/internal/trace"
)

func main() {
	jobs := flag.Int("jobs", 2000, "number of jobs")
	seed := flag.Int64("seed", 1, "generator seed")
	window := flag.Float64("window", 200, "arrival window in seconds")
	scale := flag.Float64("scale", 1, "task-count scale factor")
	replay := flag.Bool("replay", false, "replay the trace on simulated Swift")
	machines := flag.Int("machines", 100, "cluster machines for -replay")
	out := flag.String("out", "", "write the trace as JSON lines to this file")
	in := flag.String("in", "", "read a previously written trace instead of generating")
	tracePath := flag.String("trace", "", "with -replay: write a Chrome trace-event JSON of the replay")
	stats := flag.Bool("stats", false, "with -replay: print the observability snapshot")
	flag.Parse()

	var tr *trace.Trace
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		tr, err = trace.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		*jobs = len(tr.Jobs)
	} else {
		tr = trace.Generate(trace.Spec{Jobs: *jobs, Seed: *seed, ArrivalWindow: *window, Scale: *scale})
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := tr.Write(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d jobs to %s\n", len(tr.Jobs), *out)
	}
	var tasks, stages []float64
	for _, j := range tr.Jobs {
		tasks = append(tasks, float64(j.Job.NumTasks()))
		stages = append(stages, float64(j.Job.NumStages()))
	}
	fmt.Printf("trace: %d jobs, seed %d, window %.0fs\n", *jobs, *seed, *window)
	fmt.Printf("tasks:  %s  P(<=80)=%.2f\n", metrics.FourQuartiles(tasks), metrics.FractionBelow(tasks, 80))
	fmt.Printf("stages: %s  P(<=4)=%.2f\n", metrics.FourQuartiles(stages), metrics.FractionBelow(stages, 4))

	if !*replay {
		return
	}
	var rec *obs.Recorder
	if *tracePath != "" || *stats {
		rec = obs.New()
	}
	ropts := baseline.Swift()
	ropts.Obs = rec
	r := simrun.New(simrun.Config{
		Cluster: cluster.Config{Machines: *machines, ExecutorsPerMachine: 60, Model: cluster.DefaultModel()},
		Options: ropts,
		Seed:    *seed,
	})
	for _, j := range tr.Jobs {
		r.SubmitAt(sim.FromSeconds(j.SubmitAt), j.Job)
	}
	res := r.Run()
	var durations []float64
	done := 0
	for _, jr := range res.Jobs {
		if jr.Completed {
			done++
			durations = append(durations, jr.Duration())
		}
	}
	fmt.Printf("\nreplay on %d machines: %d/%d jobs completed, makespan %.0fs\n", *machines, done, *jobs, res.Makespan.Seconds())
	fmt.Printf("job runtime: %s  mean=%.1fs  P(<120s)=%.2f\n",
		metrics.FourQuartiles(durations), metrics.Mean(durations), metrics.FractionBelow(durations, 120))
	fmt.Printf("peak running executors: %.0f\n", res.ExecSeries.Max())

	if *stats {
		fmt.Println()
	}
	if err := rec.WriteReport(os.Stdout, *stats, *tracePath, ""); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swifttrace:", err)
	os.Exit(1)
}
