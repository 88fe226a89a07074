// Command swiftsim runs one job on the simulated cluster under any of the
// four engines and reports the schedule: graphlets, per-stage phases and
// end-to-end latency.
//
// Usage:
//
//	swiftsim -job q9 -system swift
//	swiftsim -job terasort=1000x1000 -system spark -machines 100
//	swiftsim -job q13 -system swift -failstage J3 -failat 0.4
//	swiftsim -submit 127.0.0.1:7411 -jobs 80 -drain   (client mode: burst-submit to swiftd)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"swift/internal/baseline"
	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/graphlet"
	"swift/internal/obs"
	"swift/internal/prof"
	"swift/internal/sim"
	"swift/internal/simrun"
	"swift/internal/tpch"
)

func main() {
	jobName := flag.String("job", "q9", "q1..q22, or terasort=MxN")
	system := flag.String("system", "swift", "swift | spark | jetscope | bubble")
	machines := flag.Int("machines", 100, "cluster machines")
	execs := flag.Int("executors", 60, "executors per machine")
	seed := flag.Int64("seed", 1, "simulation seed")
	failStage := flag.String("failstage", "", "inject a failure into this stage")
	failAt := flag.Float64("failat", 0.5, "failure time as a fraction of the clean runtime")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	stats := flag.Bool("stats", false, "print the observability snapshot (critical path + counters)")
	submitAddr := flag.String("submit", "", "client mode: burst-submit generated jobs to the swiftd at this address")
	submitJobs := flag.Int("jobs", 40, "client mode: number of jobs to submit")
	tenant := flag.String("tenant", "", "client mode: tenant label on submitted jobs (empty = default tenant)")
	drain := flag.Bool("drain", false, "client mode: drain the server after submitting and wait for it to empty")
	startProfiles := prof.Flags()
	flag.Parse()

	if *submitAddr != "" {
		os.Exit(runSubmit(*submitAddr, *submitJobs, *seed, *tenant, *drain))
	}

	job, err := buildJob(*jobName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swiftsim:", err)
		os.Exit(2)
	}
	opts, err := baseline.System(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swiftsim:", err)
		os.Exit(2)
	}

	ccfg := cluster.Config{Machines: *machines, ExecutorsPerMachine: *execs, Model: cluster.DefaultModel()}

	// The observed run is the faulty one when a failure is injected (that
	// is the interesting trace); otherwise the clean run.
	var rec *obs.Recorder
	if *tracePath != "" || *stats {
		rec = obs.New()
	}
	cleanRec := rec
	if *failStage != "" {
		cleanRec = nil
	}

	// Clean run (also the baseline for failure injection timing).
	stopProfiles := startProfiles()
	clean := runOnce(job.Clone(), ccfg, opts, *seed, "", 0, cleanRec)
	fmt.Printf("system=%s job=%s machines=%d executors=%d\n", *system, job.ID, *machines, *machines**execs)
	fmt.Printf("stages=%d tasks=%d\n", job.NumStages(), job.NumTasks())
	printGraphlets(partition(job, opts))
	fmt.Printf("\nclean run: %.2fs\n", clean.Duration())
	printPhases(clean)

	if *failStage != "" {
		at := clean.Duration() * *failAt
		faulty := runOnce(job.Clone(), ccfg, opts, *seed, *failStage, at, rec)
		fmt.Printf("\nwith failure in %s at %.1fs: %.2fs (%+.1f%%), restarts=%d resends=%d\n",
			*failStage, at, faulty.Duration(), (faulty.Duration()/clean.Duration()-1)*100,
			faulty.Restarts, faulty.Resends)
	}
	stopProfiles()

	if *stats {
		fmt.Println()
	}
	if err := rec.WriteReport(os.Stdout, *stats, *tracePath, "\n"); err != nil {
		fmt.Fprintln(os.Stderr, "swiftsim:", err)
		os.Exit(1)
	}
}

func buildJob(name string) (*dag.Job, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	if strings.HasPrefix(name, "terasort=") {
		var m, n int
		if _, err := fmt.Sscanf(strings.TrimPrefix(name, "terasort="), "%dx%d", &m, &n); err != nil {
			return nil, fmt.Errorf("bad terasort size %q (want MxN)", name)
		}
		return tpch.Terasort(m, n), nil
	}
	var q int
	if _, err := fmt.Sscanf(name, "q%d", &q); err != nil || q < 1 || q > 22 {
		return nil, fmt.Errorf("unknown job %q (q1..q22 or terasort=MxN)", name)
	}
	return tpch.Query(q), nil
}

// runOnce simulates the job and returns its result. A job that does not
// complete exits 1, with the controller's reason when it failed the job.
func runOnce(job *dag.Job, ccfg cluster.Config, opts core.Options, seed int64, failStage string, failAt float64, rec *obs.Recorder) *simrun.JobResult {
	opts.Obs = rec
	r := simrun.New(simrun.Config{Cluster: ccfg, Options: opts, Seed: seed})
	reason := ""
	r.SetActionHook(func(_ sim.Time, a core.Action) {
		if a.Kind == core.ActJobFailed {
			reason = a.Detail.Reason
		}
	})
	r.SubmitAt(0, job)
	if failStage != "" {
		r.InjectTaskFailureAt(sim.FromSeconds(failAt), job.ID, failStage, core.FailCrash)
	}
	res := r.Run()
	jr := res.Jobs[job.ID]
	switch {
	case reason != "":
		fmt.Fprintln(os.Stderr, "swiftsim: job failed:", reason)
		os.Exit(1)
	case jr == nil || !jr.Completed:
		fmt.Fprintln(os.Stderr, "swiftsim: job did not complete")
		os.Exit(1)
	}
	return jr
}

// partition returns the graphlets the controller scheduled the job by. A
// completed job has left the controller, so they come from the partition
// function the controller was configured with (core.GraphletPartition when
// opts names none), which is deterministic.
func partition(job *dag.Job, opts core.Options) []*graphlet.Graphlet {
	p := opts.Partition
	if p == nil {
		p = core.GraphletPartition
	}
	gs, err := p(job)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swiftsim:", err)
		os.Exit(1)
	}
	return gs
}

func printGraphlets(gs []*graphlet.Graphlet) {
	fmt.Printf("graphlets=%d\n", len(gs))
	for _, g := range gs {
		fmt.Printf("  %s deps=%v\n", g, g.DependsOn)
	}
}

func printPhases(jr *simrun.JobResult) {
	stages := make([]string, 0, len(jr.Phases))
	for s := range jr.Phases {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	fmt.Printf("%-6s %8s %8s %8s %8s\n", "stage", "launch", "read", "process", "write")
	for _, s := range stages {
		p := jr.Phases[s]
		fmt.Printf("%-6s %8.2f %8.2f %8.2f %8.2f\n", s, p.Launch, p.ShuffleRead, p.Process, p.ShuffleWrite)
	}
}
