// Command swiftchaos runs deterministic chaos soaks: seeded fault
// schedules (machine crashes, executor restarts, task crashes/timeouts,
// cache-worker storms, read-only drains, stragglers) injected into many
// concurrent trace-generated jobs, with the scheduler invariant auditor
// checking every controller action and event boundary.
//
// Usage:
//
//	swiftchaos -seeds 64
//	swiftchaos -seed 7 -jobs 40 -machines 50 -v
//	swiftchaos -seeds 8 -verify     # re-run each seed, compare trace hashes
//	swiftchaos -seeds 64 -workers 0 # fan seeds across GOMAXPROCS workers
//	swiftchaos -fair -seeds 1 -verify # 3-tenant fair-share soak under fire
//
// -fair switches the workload to the multi-tenant fairness soak: three
// tenants with 2:1:1 weights (one bursty, one hard-quota-capped) under
// the weighted fair-share policy, with the auditor's no-starvation
// and quota invariants armed. Per-tenant terminal tallies and the reclaim
// count print on each seed's summary line (-jobs is ignored).
//
// Exit status is non-zero if any seed reports an invariant violation, an
// unfinished job at the horizon, or (with -verify) a determinism mismatch.
// Every soak is an isolated simulation, so -workers changes wall-clock
// time only: results print in seed order and are byte-identical to a
// serial run.
package main

import (
	"flag"
	"fmt"
	"os"

	"swift/internal/chaos"
	"swift/internal/core"
	"swift/internal/exp"
	"swift/internal/obs"
	"swift/internal/prof"
	"swift/internal/sim"
)

// seedOutcome carries one soak's results out of the worker pool; printing
// stays sequential (and in seed order) in main.
type seedOutcome struct {
	res   *chaos.Result
	rec   *obs.Recorder // first seed only, when -trace/-stats ask for it
	again *chaos.Result // the -verify re-run, nil without -verify
}

func main() {
	seeds := flag.Int("seeds", 8, "number of consecutive seeds to soak (starting at -seed)")
	seed := flag.Int64("seed", 0, "first seed")
	jobs := flag.Int("jobs", 20, "trace-generated jobs per soak")
	machines := flag.Int("machines", 20, "cluster machines")
	execs := flag.Int("executors", 4, "executors per machine")
	horizon := flag.Float64("horizon", 3600, "bounded-termination deadline (virtual seconds)")
	verify := flag.Bool("verify", false, "run every seed twice and compare trace hashes")
	workers := flag.Int("workers", 1, "parallel soak workers (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print violations as they are found")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the first seed's soak")
	stats := flag.Bool("stats", false, "print the first seed's observability snapshot")
	fair := flag.Bool("fair", false, "multi-tenant fair-share soak: 3 tenants (weights 2:1:1, one bursty, one quota-capped) under the fair policy")
	shuffleRep := flag.Bool("shuffle", false, "replicated-shuffle soak: R=3 outputs under a Cache-Worker-crash-only fault mix (losses fail over until an output's whole ring is gone)")
	startProfiles := prof.Flags()
	flag.Parse()

	stopProfiles := startProfiles()
	outcomes := exp.Sweep(*seeds, *workers, func(i int) seedOutcome {
		cfg := chaos.Config{
			Seed:                *seed + int64(i),
			Jobs:                *jobs,
			Machines:            *machines,
			ExecutorsPerMachine: *execs,
			Horizon:             sim.FromSeconds(*horizon),
		}
		// Observe the first seed only: each soak needs its own recorder.
		var rec *obs.Recorder
		if (*tracePath != "" || *stats) && i == 0 {
			rec = obs.New()
		}
		configure(&cfg, rec, *fair, *shuffleRep)
		out := seedOutcome{res: chaos.Run(cfg), rec: rec}
		if *verify {
			// The re-run must not share (and re-append to) the first run's
			// recorder; rebuilding the options drops it (and keeps the fair
			// policy, which is part of the schedule being verified).
			configure(&cfg, nil, *fair, *shuffleRep)
			out.again = chaos.Run(cfg)
		}
		return out
	})
	stopProfiles()

	failed := 0
	for i, o := range outcomes {
		s := *seed + int64(i)
		res := o.res
		fmt.Println(res)
		if *verbose {
			for _, v := range res.Violations {
				fmt.Println("  violation:", v)
			}
		}
		if o.rec != nil {
			if err := o.rec.WriteReport(os.Stdout, *stats, *tracePath, "  "); err != nil {
				fmt.Fprintln(os.Stderr, "swiftchaos:", err)
				os.Exit(1)
			}
		}
		ok := len(res.Violations) == 0
		if o.again != nil {
			if o.again.TraceHash != res.TraceHash {
				ok = false
				fmt.Printf("  DETERMINISM MISMATCH: seed %d hashes %016x != %016x\n", s, res.TraceHash, o.again.TraceHash)
			} else if *verbose {
				fmt.Printf("  verified: re-run reproduced hash %016x\n", res.TraceHash)
			}
		}
		if !ok {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "swiftchaos: %d of %d seeds failed\n", failed, *seeds)
		os.Exit(1)
	}
	fmt.Printf("all %d seeds clean\n", *seeds)
}

// configure rebuilds cfg.Options for one soak run: a non-nil recorder
// attaches observability, fair layers on the 3-tenant fair-share mix and
// shuffleRep the replicated-shuffle soak (chaos.UseFairShare and
// chaos.UseReplicatedShuffle say what each is). Leaves Options nil (library
// defaults) when none applies.
func configure(cfg *chaos.Config, rec *obs.Recorder, fair, shuffleRep bool) {
	cfg.Options = nil
	if rec != nil {
		o := core.DefaultOptions()
		o.Obs = rec
		cfg.Options = &o
	}
	if fair {
		cfg.UseFairShare()
	}
	if shuffleRep {
		cfg.UseReplicatedShuffle()
	}
}
