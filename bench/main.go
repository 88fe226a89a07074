// Command bench is the repository's benchmark: five workloads over the
// control plane (trace replays through simrun, core, sched, cluster, sim),
// the data plane (TPC-H-lite on the real engine) and the swiftd daemon
// (a loopback submission burst). See README.md in this directory.
//
//	go run ./bench --workload replay_batch --seed 1 --seconds 15 --trace 0
//
// runs one workload in this process and prints, as its last line, one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Without --trace the command runs every selected workload,
// each pass in a process of its own, and prints a summary:
//
//	go run ./bench [-seed N] [-workload a,b] [-runs K] [-repeat R] [-out results.json]
//	go run ./bench -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"swift/internal/cluster"
	"swift/internal/trace"
)

var batch = &replaySpec{
	spec: func(shrink int) trace.Spec {
		return trace.Spec{Jobs: 2000 / shrink, Seed: poolSeed, RuntimeCap: 120}
	},
	cluster: func(shrink int) cluster.Config {
		c := cluster.Paper100()
		c.ExecutorsPerMachine = 30
		return c
	},
	obs: true,
}

var scale = &replaySpec{
	spec: func(shrink int) trace.Spec {
		return trace.Spec{Jobs: 400 / shrink, Seed: poolSeed, Scale: 5, RuntimeCap: 90}
	},
	cluster: func(shrink int) cluster.Config {
		c := cluster.Paper2000()
		c.Machines = 2334 // × 60 = 140,040 executors, the top of the Fig. 16 sweep
		return c
	},
}

var fair = &replaySpec{
	spec: func(shrink int) trace.Spec {
		n := 120 / shrink
		return trace.Spec{Seed: poolSeed, RuntimeCap: 120, Tenants: []trace.TenantSpec{
			{Name: "a", Jobs: n, ArrivalWindow: 300},
			{Name: "b", Jobs: 2 * n, Rate: float64(2*n) / 150, BurstAt: 30, BurstDur: 20, BurstFactor: 10},
			{Name: "c", Jobs: n, ArrivalWindow: 300},
		}}
	},
	cluster: batch.cluster,
	fair:    true,
}

var workloads = []*workload{
	{
		name:    "replay_batch",
		why:     "2,000-job batch replay on 100 machines x 30 executors under FIFO: a saturated scheduler with a deep request queue, so core.schedule and cluster.Allocate do most of the work",
		tailPct: 99, iters: 3, simLatency: true,
		setup: batch.setup, traced: batch.traced,
	},
	{
		name:    "replay_scale",
		why:     "400 five-times-larger jobs on 140,040 executors under FIFO: unsaturated with huge cluster state, so the event heap, allocation and GC dominate and a sched change must not show",
		tailPct: 95, iters: 3, simLatency: true,
		setup: scale.setup, traced: scale.traced,
	},
	{
		name:    "replay_fair",
		why:     "three tenants with a 10x burst under weighted fair share with a quota: the servePolicy and preemption path of core instead of the FIFO fast path, which a FIFO-only optimisation must not slow",
		tailPct: 95, iters: 3, simLatency: true,
		setup: fair.setup, traced: fair.traced,
	},
	{
		name:    "engine_tpch",
		why:     "TPC-H-lite Q1, Q3, Q6, Q12 on about 300k real lineitems: batch kernels, codec, shuffle store and goroutine executors do the work and the controller almost none",
		tailPct: 75, iters: 4,
		setup: tpchSetup, traced: tpchTraced,
	},
	{
		name:    "service_burst",
		why:     "3,000 jobs submitted back to back to a fresh swiftd over one rpc connection: the only path through rpc, trace decoding, flow admission and core under real concurrency",
		tailPct: 99, iters: 1,
		prepare: burstPrepare, setup: burstSetup, traced: burstTraced,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	var (
		names      = flag.String("workload", "", "workload name, or a comma-separated list (default: all)")
		seed       = flag.Int64("seed", 1, "the only workload input: everything generated derives from it")
		seconds    = flag.Float64("seconds", 15, "how long one untraced run measures")
		traceMode  = flag.String("trace", "", "0: end-to-end metrics, 1: per-layer metrics, in this process; unset: both, one process per pass")
		traceOut   = flag.String("traceout", "", "with -trace 1: write the spans as Chrome trace-event JSON to this file")
		out        = flag.String("out", "", "write every run's result to this JSON file")
		runs       = flag.Int("runs", 1, "untraced runs per workload and set, each with the next seed")
		repeat     = flag.Int("repeat", 1, "sets of runs; two or more are compared with the first")
		compare    = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		specPath   = flag.String("spec", "BENCHMARK.json", "the benchmark description holding the regression bounds")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run (one file per workload when several run)")
		memProfile = flag.String("memprofile", "", "write a heap profile at the end of the run")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files"))
		}
		ok, err := compareFiles(flag.Arg(0), flag.Arg(1), *specPath, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	var selected []*workload
	if *names == "" {
		selected = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w := findWorkload(n)
			if w == nil {
				fatal(fmt.Errorf("unknown workload %q", n))
			}
			selected = append(selected, w)
		}
	}

	if *traceMode == "" {
		o := orchestrator{selected: selected, seed: *seed, seconds: *seconds, runs: *runs, repeat: *repeat,
			out: *out, specPath: *specPath, cpuProfile: *cpuProfile, memProfile: *memProfile, traceOut: *traceOut}
		if err := o.run(); err != nil {
			fatal(err)
		}
		return
	}

	if len(selected) != 1 {
		fatal(fmt.Errorf("-trace %s runs in this process and wants exactly one -workload", *traceMode))
	}
	w := selected[0]
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	var res result
	var err error
	switch *traceMode {
	case "0":
		res, err = runUntraced(w, *seed, *seconds, 1)
	case "1":
		rec := newRecorder()
		res, err = runTraced(w, *seed, 1, rec)
		if err == nil && *traceOut != "" {
			err = writeTrace(rec, *traceOut)
		}
	default:
		err = fmt.Errorf("-trace wants 0 or 1, not %q", *traceMode)
	}
	pprof.StopCPUProfile()
	if err == nil && *memProfile != "" {
		err = writeHeapProfile(*memProfile)
	}
	if err != nil {
		fatal(err)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeTrace(rec *recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialise up-to-date statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
