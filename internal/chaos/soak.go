package chaos

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/flow"
	"swift/internal/metrics"
	"swift/internal/sched"
	"swift/internal/sim"
	"swift/internal/simrun"
	"swift/internal/trace"
)

// Config parameterises one chaos soak: a trace-generated workload run on a
// simulated cluster under a seeded fault schedule with full auditing. The
// zero value of any field takes the default noted on it.
type Config struct {
	Seed int64
	// Jobs is the number of trace-generated concurrent jobs (default 20).
	Jobs int
	// Machines and ExecutorsPerMachine size the cluster (default 20×4).
	Machines            int
	ExecutorsPerMachine int
	// FaultWindow bounds fault injection times (default 90 s).
	FaultWindow sim.Duration
	// Horizon is the bounded-termination deadline: every job must be done
	// or failed by then (default 3600 s — the trace's heavy-tail jobs can
	// legitimately need over half an hour of virtual time when a fault
	// storm hits them early).
	Horizon sim.Time
	// Profile overrides the fault mix (default DefaultProfile).
	Profile *Profile
	// Options overrides the controller configuration (default
	// core.DefaultOptions).
	Options *core.Options
	// Flow enables admission control: every submission (trace arrivals and
	// overload bursts alike) passes through a flow controller with this
	// configuration before reaching the scheduler, and the auditor enforces
	// the admission invariants (exactly-once decisions, bounded queue, no
	// admitted job lost). Nil runs the legacy direct-submission soak.
	Flow *flow.Config
	// Tenants switches the workload to the multi-tenant arrival process
	// (see trace.TenantSpec); Jobs is then ignored. The soak additionally
	// audits fairness: every tenant's terminal tallies fold into the trace
	// hash, and a tenant whose every job dies — while others complete — is
	// reported as starved. A tenant the scheduling policy gives a hard
	// quota is audited against it (see tenantQuotas).
	Tenants []trace.TenantSpec
}

const (
	// arrivalWindow spreads the single-stream workload's submissions, in
	// seconds.
	arrivalWindow = 60
	// maxSteps bounds total simulation events, turning livelock into a
	// reported violation.
	maxSteps = 5_000_000
)

func (c Config) withDefaults() Config {
	if c.Jobs <= 0 {
		c.Jobs = 20
	}
	if c.Machines <= 0 {
		c.Machines = 20
	}
	if c.ExecutorsPerMachine <= 0 {
		c.ExecutorsPerMachine = 4
	}
	if c.FaultWindow <= 0 {
		c.FaultWindow = 90 * sim.Second
	}
	if c.Horizon <= 0 {
		c.Horizon = 3600 * sim.Second
	}
	c.profile()
	c.options()
	return c
}

// tenantQuotas reads the hard quota the configured scheduling policy gives
// each of the workload's tenants off its Proportion shares, for the
// auditor's hard-quota invariant.
func tenantQuotas(cfg Config) map[string]int {
	if cfg.Options.Policy == nil || len(cfg.Tenants) == 0 {
		return nil
	}
	view := sched.View{Tenants: make([]sched.TenantUsage, len(cfg.Tenants))}
	for i, t := range cfg.Tenants {
		view.Tenants[i].Tenant = t.Name
	}
	slices.SortFunc(view.Tenants, func(a, b sched.TenantUsage) int { return strings.Compare(a.Tenant, b.Tenant) })
	quotas := make(map[string]int)
	for _, s := range cfg.Options.Policy.Proportion(view) {
		if s.Quota > 0 {
			quotas[s.Tenant] = s.Quota
		}
	}
	return quotas
}

// Result summarises one soak.
type Result struct {
	Seed       int64
	Jobs       int
	Violations []string
	// TraceHash is the FNV-1a hash over every controller action and every
	// applied fault, with timestamps: the determinism witness.
	TraceHash uint64
	Completed int
	Failed    int
	// Unfinished jobs at the horizon are also reported as violations.
	Unfinished int
	// Injected and Skipped tally faults by kind; a fault is skipped when
	// its target does not apply (no running task, machine already down).
	Injected *metrics.Counter
	Skipped  *metrics.Counter
	Restarts int
	Resends  int
	Makespan sim.Time
	// LastFinish is when the final job reached done/failed — the
	// recovery-cost makespan (Makespan itself is clamped to the horizon).
	LastFinish sim.Time
	// MeanLatency is the mean end-to-end latency of completed jobs, in
	// seconds.
	MeanLatency float64
	Quiesced    bool
	// Flow tallies admission outcomes when Config.Flow is set: jobs that
	// ever entered the scheduler, jobs shed at the door, and jobs still
	// parked in the wait queue at the horizon.
	FlowAdmitted  int
	FlowShed      int
	FlowQueuedEnd int
	// Tenants holds per-tenant terminal tallies when Config.Tenants is
	// set, in declaration order.
	Tenants []TenantResult
	// Reclaims counts whole graphlets preempted by the scheduling policy.
	Reclaims int
	// ReplicaHits and Recomputes report output-loss recovery outcomes
	// when Options.ShuffleReplicas > 1: lost serving copies recovered from
	// a surviving replica versus lost outputs that re-ran their producer.
	ReplicaHits int
	Recomputes  int
	// Replicated records whether the soak ran with output replication, so
	// the summary line prints the shuffle block only when meaningful.
	Replicated bool
}

// TenantResult is one tenant's terminal job tally.
type TenantResult struct {
	Name      string
	Submitted int
	Done      int
	Failed    int
}

// String renders a one-line summary.
func (r *Result) String() string {
	s := fmt.Sprintf("seed=%d jobs=%d done=%d failed=%d unfinished=%d violations=%d hash=%016x faults[%s] restarts=%d resends=%d last-finish=%.0fs mean-latency=%.1fs",
		r.Seed, r.Jobs, r.Completed, r.Failed, r.Unfinished, len(r.Violations), r.TraceHash, r.Injected, r.Restarts, r.Resends, r.LastFinish.Seconds(), r.MeanLatency)
	if r.FlowAdmitted+r.FlowShed+r.FlowQueuedEnd > 0 {
		s += fmt.Sprintf(" flow[admitted=%d shed=%d queued-end=%d]", r.FlowAdmitted, r.FlowShed, r.FlowQueuedEnd)
	}
	if len(r.Tenants) > 0 {
		s += fmt.Sprintf(" reclaims=%d", r.Reclaims)
		for _, tr := range r.Tenants {
			s += fmt.Sprintf(" %s[done=%d failed=%d]", tr.Name, tr.Done, tr.Failed)
		}
	}
	if r.Replicated {
		s += fmt.Sprintf(" shuffle[replica-hits=%d recomputes=%d]", r.ReplicaHits, r.Recomputes)
	}
	return s
}

// Run executes one fully deterministic chaos soak: generate the workload
// and fault schedule from the seed, wire the auditor into the driver's
// action/event hooks, inject every fault at its scheduled instant, run to
// the horizon and verify bounded termination plus a final invariant sweep.
func Run(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{
		Seed:     cfg.Seed,
		Jobs:     cfg.Jobs,
		Injected: metrics.NewCounter(),
		Skipped:  metrics.NewCounter(),
	}

	runner := simrun.New(simrun.Config{
		Cluster:      cluster.Config{Machines: cfg.Machines, ExecutorsPerMachine: cfg.ExecutorsPerMachine},
		Options:      *cfg.Options,
		Seed:         cfg.Seed,
		ReadmitDelay: cfg.Profile.RecoverDelay,
	})
	aud := NewAuditor(runner.Controller(), runner.Cluster())
	aud.SetTenantQuotas(tenantQuotas(cfg))
	runner.SetActionHook(aud.OnAction)

	ctrl := runner.Controller()
	eng := runner.Engine()

	// With admission control enabled, every submission is offered to the
	// flow controller instead of reaching the scheduler directly, through
	// the same flow.Pump swiftd serves with; every decision is audited, an
	// admission just before the scheduler sees the job.
	var pump *flow.SimPump
	var offered []*dag.Job
	if cfg.Flow != nil {
		pump = &flow.SimPump{Engine: eng, Pump: flow.Pump{
			Flow:     flow.NewController(*cfg.Flow, cfg.Machines*cfg.ExecutorsPerMachine),
			Snapshot: ctrl.Snapshot,
			Admit: func(now sim.Time, job *dag.Job, _ sim.Duration, released bool) error {
				aud.FlowDecision(now, job.ID, flow.Admitted, released)
				return runner.Submit(job)
			},
		}}
	}
	offer := func(job *dag.Job) {
		offered = append(offered, job)
		if out, _ := pump.Offer(job); out.Decision != flow.Admitted {
			aud.FlowDecision(eng.Now(), job.ID, out.Decision, false)
		}
	}
	if pump == nil {
		runner.SetEventHook(aud.CheckNow)
	} else {
		runner.SetEventHook(func(now sim.Time) {
			aud.CheckNow(now)
			pump.OnEvent(now)
		})
	}

	spec := trace.Spec{
		Jobs:          cfg.Jobs,
		Seed:          cfg.Seed,
		ArrivalWindow: arrivalWindow,
	}
	if len(cfg.Tenants) > 0 {
		spec = trace.Spec{Seed: cfg.Seed, Tenants: cfg.Tenants}
	}
	tr := trace.Generate(spec)
	res.Jobs = len(tr.Jobs)
	for _, j := range tr.Jobs {
		if pump != nil {
			j := j
			eng.At(sim.FromSeconds(j.SubmitAt), func() { offer(j.Job) })
		} else {
			runner.SubmitAt(sim.FromSeconds(j.SubmitAt), j.Job)
		}
	}

	// Distinct derived seeds keep the four random streams (workload,
	// schedule shape, injection-time victim picks, overload-burst
	// workloads) independent.
	schedule := GenerateSchedule(rand.New(rand.NewSource(cfg.Seed<<1|1)), *cfg.Profile,
		cfg.FaultWindow, cfg.Machines, cfg.Machines*cfg.ExecutorsPerMachine)
	applyRng := rand.New(rand.NewSource(cfg.Seed<<2 | 3))
	overloadIdx := 0
	for _, f := range schedule {
		f := f
		if f.Kind == KindOverload {
			// Overload bursts are submission storms, not injected faults:
			// they never reach apply(). Without a flow controller there is
			// no admission plane to storm, so they are recorded as skipped.
			if pump == nil {
				res.Skipped.Add(f.Kind.String(), 1)
				continue
			}
			idx := overloadIdx
			overloadIdx++
			eng.At(f.At, func() {
				burst := trace.Generate(trace.Spec{Jobs: f.Count, Seed: (cfg.Seed<<3 | 5) + int64(idx)*7919})
				for k, bj := range burst.Jobs {
					bj.Job.ID = fmt.Sprintf("ovl%d-%d", idx, k)
					offer(bj.Job)
				}
				res.Injected.Add(f.Kind.String(), 1)
				aud.Fold(fmt.Sprintf("fault|%d|%s|burst%dx%d\n", eng.Now(), f.Kind, idx, f.Count))
				cfg.Options.Obs.Fault(f.Kind.String(), fmt.Sprintf("burst%d", idx))
			})
			continue
		}
		eng.At(f.At, func() {
			target, ok := apply(runner, f, applyRng, cfg.Profile)
			if ok {
				res.Injected.Add(f.Kind.String(), 1)
				aud.Fold(fmt.Sprintf("fault|%d|%s|%s\n", eng.Now(), f.Kind, target))
				// Mirror applied faults into the observability trace (the
				// recorder arrives through Options.Obs; nil-safe).
				cfg.Options.Obs.Fault(f.Kind.String(), target)
			} else {
				res.Skipped.Add(f.Kind.String(), 1)
			}
		})
	}

	end, quiesced := runner.RunBounded(cfg.Horizon, maxSteps)
	res.Quiesced = quiesced
	res.Makespan = end
	if !quiesced {
		aud.violate(end, "event budget of %d steps exhausted before the horizon: livelocked recovery loop", maxSteps)
	}
	aud.CheckNow(end)
	// The driver's own ledger: every attempt it started has ended by the
	// horizon, and no instant ran more attempts than the cluster has
	// executors. An attempt the controller failed but the driver kept
	// running shows up here.
	series := runner.Results().ExecSeries
	if pts := series.Points(); len(pts) > 0 && pts[len(pts)-1].V != 0 {
		aud.violate(end, "running-executor series ends at %g, not 0", pts[len(pts)-1].V)
	}
	if peak, execs := series.Max(), cfg.Machines*cfg.ExecutorsPerMachine; peak > float64(execs) {
		aud.violate(end, "running-executor series peaks at %g on %d executors", peak, execs)
	}

	// Bounded termination. Without admission control, every submitted job
	// must be done or failed at the horizon. With it, the obligation moves
	// to the admission ledger: every offer got exactly one decision,
	// admitted jobs are terminal, queued/shed jobs never touched the
	// scheduler, and the wait queue never exceeded its bound.
	if pump == nil {
		for _, j := range tr.Jobs {
			switch {
			case ctrl.JobDone(j.Job.ID):
				res.Completed++
			case ctrl.JobFailed(j.Job.ID):
				res.Failed++
			default:
				res.Unfinished++
				aud.violate(end, "job %s neither done nor failed at the horizon", j.Job.ID)
			}
		}
	} else {
		for _, job := range offered {
			dec, ok := aud.FlowOutcome(job.ID)
			if !ok {
				aud.violate(end, "flow: submission %s never received an admission decision", job.ID)
				continue
			}
			switch dec {
			case flow.Admitted:
				res.FlowAdmitted++
				switch {
				case ctrl.JobDone(job.ID):
					res.Completed++
				case ctrl.JobFailed(job.ID):
					res.Failed++
				default:
					res.Unfinished++
					aud.violate(end, "admitted job %s neither done nor failed at the horizon", job.ID)
				}
			case flow.Queued:
				res.FlowQueuedEnd++
				if ctrl.JobDone(job.ID) || ctrl.JobFailed(job.ID) {
					aud.violate(end, "queued job %s reached the scheduler without a release decision", job.ID)
				}
			case flow.Shed:
				res.FlowShed++
				if ctrl.JobDone(job.ID) || ctrl.JobFailed(job.ID) {
					aud.violate(end, "shed job %s reached the scheduler", job.ID)
				}
			}
		}
		st := pump.Flow.Stats()
		if st.MaxQueue > pump.Flow.MaxQueue() {
			aud.violate(end, "flow wait queue peaked at %d, above its bound %d", st.MaxQueue, pump.Flow.MaxQueue())
		}
		if st.QueueLen != res.FlowQueuedEnd {
			aud.violate(end, "flow queue length %d disagrees with %d queued-at-horizon decisions", st.QueueLen, res.FlowQueuedEnd)
		}
		// The final admission tallies are part of the determinism witness.
		aud.Fold(fmt.Sprintf("flowstats|%d|%d|%d|%d\n", st.Admitted, st.Queued, st.Shed, st.QueueLen))
	}
	// Fairness audit: per-tenant terminal tallies join the determinism
	// witness, and a tenant whose submissions all died while another
	// tenant completed work is starvation — the no-starvation invariant a
	// fair policy must uphold even under the fault schedule.
	if len(cfg.Tenants) > 0 {
		anyDone := false
		for _, ts := range cfg.Tenants {
			tres := TenantResult{Name: ts.Name}
			for _, j := range tr.Jobs {
				if j.Job.Tenant != ts.Name {
					continue
				}
				tres.Submitted++
				switch {
				case ctrl.JobDone(j.Job.ID):
					tres.Done++
				case ctrl.JobFailed(j.Job.ID):
					tres.Failed++
				}
			}
			anyDone = anyDone || tres.Done > 0
			res.Tenants = append(res.Tenants, tres)
			aud.Fold(fmt.Sprintf("tenant|%s|%d|%d|%d\n", tres.Name, tres.Submitted, tres.Done, tres.Failed))
		}
		for _, tres := range res.Tenants {
			if anyDone && tres.Submitted > 0 && tres.Done == 0 {
				aud.violate(end, "tenant %s starved: %d jobs submitted, none completed", tres.Name, tres.Submitted)
			}
		}
		res.Reclaims = ctrl.ReclaimedGangs()
		aud.Fold(fmt.Sprintf("reclaims|%d\n", res.Reclaims))
	}
	// Recovery tallies are reported for every soak, but they join the
	// determinism witness (and the summary line) only when replication is
	// on, so legacy (R ≤ 1) trace hashes are unchanged.
	res.ReplicaHits = ctrl.ReplicaRecoveries()
	res.Recomputes = ctrl.OutputRecomputes()
	if cfg.Options.ShuffleReplicas > 1 {
		res.Replicated = true
		aud.Fold(fmt.Sprintf("shuffle|%d|%d\n", res.ReplicaHits, res.Recomputes))
	}
	latency := 0.0
	for _, jr := range runner.Results().Jobs {
		res.Restarts += jr.Restarts
		res.Resends += jr.Resends
		if jr.Finish > res.LastFinish {
			res.LastFinish = jr.Finish
		}
		if jr.Completed {
			latency += jr.Duration()
		}
	}
	if res.Completed > 0 {
		res.MeanLatency = latency / float64(res.Completed)
	}
	res.Violations = aud.Violations()
	res.TraceHash = aud.TraceHash()
	return res
}

// apply injects one fault, choosing live victims for task-scoped kinds
// with the dedicated injection rng. It returns a target description (for
// the trace hash) and whether the fault applied.
func apply(r *simrun.Runner, f Fault, rng *rand.Rand, p *Profile) (string, bool) {
	eng := r.Engine()
	switch f.Kind {
	case KindMachineCrash:
		id := cluster.MachineID(f.Machine)
		if !r.CrashMachine(id) {
			return "", false
		}
		eng.After(p.RebootDelay, func() { r.RebootMachine(id) })
		return fmt.Sprintf("m%d", f.Machine), true
	case KindMachineUnhealthy:
		id := cluster.MachineID(f.Machine)
		if !r.MarkUnhealthy(id) {
			return "", false
		}
		eng.After(p.RecoverDelay, func() { r.RecoverMachine(id) })
		return fmt.Sprintf("m%d", f.Machine), true
	case KindExecutorRestart:
		r.RestartExecutor(cluster.ExecutorID(f.Executor))
		return fmt.Sprintf("e%d", f.Executor), true
	case KindTaskCrash:
		ref, ok := pickRunning(r, rng)
		if !ok {
			return "", false
		}
		kind := core.FailCrash
		if f.AppErr {
			kind = core.FailAppError
		}
		return ref.String(), r.CrashTask(ref, kind)
	case KindTaskTimeout:
		ref, ok := pickRunning(r, rng)
		if !ok {
			return "", false
		}
		return ref.String(), r.TimeoutTask(ref)
	case KindOutputLost:
		ref, ok := pickDone(r, rng)
		if !ok {
			return "", false
		}
		r.LoseOutput(ref)
		return ref.String(), true
	case KindCacheWorkerCrash:
		if !r.CrashCacheWorker(cluster.MachineID(f.Machine)) {
			return "", false
		}
		return fmt.Sprintf("m%d", f.Machine), true
	case KindStraggler:
		ref, ok := pickRunning(r, rng)
		if !ok {
			return "", false
		}
		return fmt.Sprintf("%s*%.2f", ref, f.Factor), r.SlowTask(ref, f.Factor)
	case KindOverload:
		// Submission storms are interpreted by the soak's admission plane
		// (Run), never injected into the cluster; reaching here means the
		// soak had no flow controller, and the fault does not apply.
		return "", false
	}
	return "", false
}

// pickRunning selects one running task uniformly (sorted refs, seeded rng:
// deterministic).
func pickRunning(r *simrun.Runner, rng *rand.Rand) (core.TaskRef, bool) {
	refs := r.RunningTaskRefs()
	if len(refs) == 0 {
		return core.TaskRef{}, false
	}
	return refs[rng.Intn(len(refs))], true
}

// pickDone selects one completed task whose buffered output is still
// intact, from the controller's deterministic snapshots.
func pickDone(r *simrun.Runner, rng *rand.Rand) (core.TaskRef, bool) {
	ctrl := r.Controller()
	var refs []core.TaskRef
	for _, job := range ctrl.LiveJobs() {
		for _, t := range ctrl.Tasks(job) {
			if t.State == core.TaskDone && !t.OutputLost {
				refs = append(refs, t.Ref)
			}
		}
	}
	if len(refs) == 0 {
		return core.TaskRef{}, false
	}
	return refs[rng.Intn(len(refs))], true
}
