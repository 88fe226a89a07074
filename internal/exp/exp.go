// Package exp regenerates every table and figure of the paper's evaluation
// (Section V) on the simulated platform: one exported function per
// experiment, each returning the same rows/series the paper reports. The
// package is the single source of truth behind cmd/swiftbench.
//
// Absolute seconds differ from the paper (the substrate is a calibrated
// simulator, not Alibaba's clusters). Each paper claim — who wins, by what
// factor, where the crossovers fall — is a row of Fidelity, whose bands
// the per-experiment tests and swiftbench enforce and EXPERIMENTS.md prints.
package exp

import (
	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/obs"
	"swift/internal/sim"
	"swift/internal/simrun"
	"swift/internal/trace"
)

// Config configures the experiments, which run at the paper's scale.
type Config struct {
	Seed int64

	// Obs, when non-nil, is installed as the observability recorder of
	// every simulated deployment an experiment spins up (unless the
	// experiment supplies its own via core.Options). RunAll, asked for
	// hashes, gives each experiment a fresh hash-only recorder and reports
	// its StreamHash — the witness that a parallel sweep replayed exactly
	// the serial execution.
	Obs *obs.Recorder
}

// sim builds a fresh simulated deployment, routing the config's recorder
// into the run unless the caller's options already carry one.
func (c Config) sim(ccfg cluster.Config, opts core.Options, seed int64) *simrun.Runner {
	if opts.Obs == nil {
		opts.Obs = c.Obs
	}
	return simrun.New(simrun.Config{Cluster: ccfg, Options: opts, Seed: seed})
}

// runTrace replays a trace on a fresh simulated deployment.
func (c Config) runTrace(tr *trace.Trace, ccfg cluster.Config, opts core.Options, seed int64) *simrun.Results {
	r := c.sim(ccfg, opts, seed)
	for _, j := range tr.Jobs {
		r.SubmitAt(sim.FromSeconds(j.SubmitAt), j.Job)
	}
	return r.Run()
}

// runOne runs a single job on a fresh deployment and returns its duration
// in seconds along with the full result (for phase inspection).
func (c Config) runOne(job *dag.Job, ccfg cluster.Config, opts core.Options, seed int64) (*simrun.JobResult, *simrun.Results) {
	r := c.sim(ccfg, opts, seed)
	r.SubmitAt(0, job)
	res := r.Run()
	return res.Jobs[job.ID], res
}
