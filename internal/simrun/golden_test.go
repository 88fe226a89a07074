package simrun_test

import (
	"flag"
	"fmt"
	"testing"

	"swift/internal/baseline"
	"swift/internal/chaos"
	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/obs"
	"swift/internal/sched"
	"swift/internal/sim"
	"swift/internal/simrun"
	"swift/internal/trace"
)

// The golden outcome gate. Every other determinism test in the tree is
// run-vs-run: it compares two arms of the same binary, so a change that
// reorders same-time events in BOTH arms passes them all. These literals
// were generated on the commit before the control-plane hot path was
// rewritten (PR 11, 03f8f30) and pin the simulated outcome itself; an
// optimisation of sim/cluster/core/simrun must reproduce them exactly.
//
// go test ./internal/simrun -run Golden -update prints a fresh table to
// paste here — only legitimate when a change is *meant* to move simulated
// behaviour, and then EXPERIMENTS.md must say why.
var update = flag.Bool("update", false, "print regenerated golden literals instead of comparing")

// outcome is what one pinned scenario must reproduce.
type outcome struct {
	MakespanUS   int64  // simulated end of the run
	SumLatencyUS int64  // Σ (finish − submit) over completed jobs
	Completed    int    // jobs that completed
	Samples      int    // Σ len(JobResult.Samples): finished task attempts
	Actions      int    // controller actions drained by the driver
	Reclaims     int    // whole gangs reclaimed by policy preemption
	StreamHash   uint64 // obs recorder's FNV-1a witness over every event
}

func (o outcome) String() string {
	return fmt.Sprintf("{MakespanUS: %d, SumLatencyUS: %d, Completed: %d, Samples: %d, Actions: %d, Reclaims: %d, StreamHash: %#016x}",
		o.MakespanUS, o.SumLatencyUS, o.Completed, o.Samples, o.Actions, o.Reclaims, o.StreamHash)
}

var goldenReplay = map[string]outcome{
	"fifo": {MakespanUS: 636779181, SumLatencyUS: 96151737008, Completed: 200, Samples: 21060, Actions: 21260, Reclaims: 0, StreamHash: 0xc37173f6745345e5},
	"fair": {MakespanUS: 582459710, SumLatencyUS: 36633372046, Completed: 160, Samples: 17041, Actions: 17872, Reclaims: 25, StreamHash: 0xf26e33bb66c7815d},
}

func goldenCluster() cluster.Config {
	return cluster.Config{Machines: 20, ExecutorsPerMachine: 15, Model: cluster.DefaultModel()}
}

// replayOutcome runs a trace to quiescence with the recorder on and an
// action hook counting what the driver drained.
func replayOutcome(t *testing.T, opts core.Options, spec trace.Spec) outcome {
	t.Helper()
	rec := obs.New()
	opts.Obs = rec
	r := simrun.New(simrun.Config{Cluster: goldenCluster(), Options: opts, Seed: 1})
	var o outcome
	r.SetActionHook(func(sim.Time, core.Action) { o.Actions++ })
	for _, j := range trace.Generate(spec).Jobs {
		r.SubmitAt(sim.FromSeconds(j.SubmitAt), j.Job)
	}
	res := r.Run()
	o.MakespanUS = int64(res.Makespan)
	for _, j := range res.SortedJobs() {
		o.Samples += len(j.Samples)
		if j.Completed {
			o.Completed++
			o.SumLatencyUS += int64(j.Finish - j.Submit)
		}
	}
	o.Reclaims = r.Controller().ReclaimedGangs()
	o.StreamHash = rec.StreamHash()
	if v := r.Controller().CheckInvariants(); len(v) > 0 {
		t.Errorf("invariants violated at quiescence: %v", v)
	}
	return o
}

func TestGoldenReplay(t *testing.T) {
	fair := baseline.Swift()
	fair.Policy = sched.NewFairShare(sched.FairShareConfig{Queues: []sched.QueueSpec{
		{Name: "a", Weight: 2},
		{Name: "b", Weight: 1},
		{Name: "c", Weight: 1, Quota: 60},
	}})
	scenarios := []struct {
		name string
		opts core.Options
		spec trace.Spec
	}{
		// The Fig-10 Swift arm at a tenth of the size: all jobs at t=0 on
		// a saturated cluster, so the FIFO queue is deep throughout.
		{"fifo", baseline.Swift(), trace.Spec{Jobs: 200, Seed: 1, RuntimeCap: 120}},
		// bench's replay_fair shape: three tenants, b bursts 10x, c has a
		// hard quota — servePolicy, preemptRound and reclaimGang all run.
		{"fair", fair, trace.Spec{Seed: 1, RuntimeCap: 120, Tenants: []trace.TenantSpec{
			{Name: "a", Jobs: 40, ArrivalWindow: 300},
			{Name: "b", Jobs: 80, Rate: 80.0 / 150, BurstAt: 30, BurstDur: 20, BurstFactor: 10},
			{Name: "c", Jobs: 40, ArrivalWindow: 300},
		}}},
	}
	for _, sc := range scenarios {
		got := replayOutcome(t, sc.opts, sc.spec)
		if *update {
			fmt.Printf("\t%q: %v,\n", sc.name, got)
			continue
		}
		if want := goldenReplay[sc.name]; got != want {
			t.Errorf("%s: simulated outcome moved\n got  %v\n want %v", sc.name, got, want)
		}
	}
}

// chaosOutcome is the pinned result of one chaos soak seed.
type chaosOutcome struct {
	LastFinishUS int64
	Completed    int
	Failed       int
	Restarts     int
	Resends      int
	Injected     int64  // faults that applied
	ObsEvents    int    // events the recorder saw
	TraceHash    uint64 // auditor's hash over every action and fault, timestamped
	StreamHash   uint64
}

func (o chaosOutcome) String() string {
	return fmt.Sprintf("{LastFinishUS: %d, Completed: %d, Failed: %d, Restarts: %d, Resends: %d, Injected: %d, ObsEvents: %d, TraceHash: %#016x, StreamHash: %#016x}",
		o.LastFinishUS, o.Completed, o.Failed, o.Restarts, o.Resends, o.Injected, o.ObsEvents, o.TraceHash, o.StreamHash)
}

var goldenChaos = chaosOutcome{LastFinishUS: 279952373, Completed: 29, Failed: 1, Restarts: 0, Resends: 19, Injected: 47, ObsEvents: 1885, TraceHash: 0x146dca61651d7ca0, StreamHash: 0x7cd3eae7046a51f3}

// TestGoldenChaos pins one default-profile soak seed. The profile's
// RecoverDelay becomes simrun's ReadmitDelay, so the run exercises the
// recovery paths the replays never reach: re-pended tasks, the deadlock
// breaker, cascades, machine re-admission, black-hole launches.
func TestGoldenChaos(t *testing.T) {
	rec := obs.New()
	opts := core.DefaultOptions()
	opts.Obs = rec
	res := chaos.Run(chaos.Config{Seed: 3, Jobs: 30, Options: &opts})
	if len(res.Violations) > 0 {
		t.Errorf("soak violations: %v", res.Violations)
	}
	got := chaosOutcome{
		LastFinishUS: int64(res.LastFinish),
		Completed:    res.Completed,
		Failed:       res.Failed,
		Restarts:     res.Restarts,
		Resends:      res.Resends,
		Injected:     res.Injected.Total(),
		ObsEvents:    len(rec.Events()),
		TraceHash:    res.TraceHash,
		StreamHash:   rec.StreamHash(),
	}
	if *update {
		fmt.Printf("var goldenChaos = chaosOutcome%v\n", got)
		return
	}
	if got != goldenChaos {
		t.Errorf("chaos seed 3: simulated outcome moved\n got  %v\n want %v", got, goldenChaos)
	}
}
