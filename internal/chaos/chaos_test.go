package chaos

import (
	"flag"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/flow"
	"swift/internal/shuffle"
	"swift/internal/sim"
)

// -chaos.seeds raises the soak breadth: CI runs 8, the acceptance sweep
// runs 64+. Each seed is an independent schedule over ≥20 concurrent jobs.
var chaosSeeds = flag.Int("chaos.seeds", 4, "number of fixed-seed chaos schedules to soak")

func TestGenerateScheduleDeterministicAndComplete(t *testing.T) {
	p := DefaultProfile()
	gen := func() []Fault {
		return GenerateSchedule(rand.New(rand.NewSource(42)), p, 120*sim.Second, 20, 80)
	}
	a, b := gen(), gen()
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Every fault kind appears, times are sorted and inside the window.
	seen := make(map[FaultKind]bool)
	for i, f := range a {
		seen[f.Kind] = true
		if f.At < 0 || f.At >= 120*sim.Second {
			t.Fatalf("fault %d outside window: %v", i, f.At)
		}
		if i > 0 && f.At < a[i-1].At {
			t.Fatalf("schedule unsorted at %d", i)
		}
	}
	// Every enabled kind appears; the default profile deliberately leaves
	// overload bursts off (they need an admission plane to storm).
	rates := p.rates()
	for k := FaultKind(0); k < numFaultKinds; k++ {
		if rates[k] <= 0 {
			if seen[k] {
				t.Errorf("disabled kind %v generated", k)
			}
			continue
		}
		if !seen[k] {
			t.Errorf("default profile never generated %v over 120s", k)
		}
	}
	// An overload-enabled profile generates sized bursts.
	p.OverloadPerMin = 3
	p.OverloadBurst = 17
	bursts := 0
	for _, f := range GenerateSchedule(rand.New(rand.NewSource(42)), p, 120*sim.Second, 20, 80) {
		if f.Kind == KindOverload {
			bursts++
			if f.Count != 17 {
				t.Fatalf("overload burst count = %d, want 17", f.Count)
			}
		}
	}
	if bursts == 0 {
		t.Error("overload-enabled profile generated no bursts over 120s")
	}
	// A rate too low for the Poisson draw to land in the window still
	// yields one burst, inside the window.
	p.OverloadPerMin = 1e-6
	bursts = 0
	for _, f := range GenerateSchedule(rand.New(rand.NewSource(42)), p, 120*sim.Second, 20, 80) {
		if f.Kind == KindOverload {
			bursts++
			if f.Count != 17 || f.At < 0 || f.At >= 120*sim.Second {
				t.Fatalf("guaranteed burst %+v, want 17 submissions inside the window", f)
			}
		}
	}
	if bursts != 1 {
		t.Errorf("a near-zero overload rate generated %d bursts, want 1", bursts)
	}
}

// TestSoak is the chaos gate: -chaos.seeds independent schedules, each with
// 20 concurrent trace jobs and every fault kind active, must finish with
// zero invariant violations and every job done-or-failed by the horizon.
func TestSoak(t *testing.T) {
	for seed := int64(0); seed < int64(*chaosSeeds); seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			res := Run(Config{Seed: seed})
			t.Log(res)
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if res.Unfinished > 0 {
				t.Errorf("%d jobs unfinished at horizon", res.Unfinished)
			}
			if !res.Quiesced {
				t.Error("simulation did not quiesce within the step budget")
			}
			if res.Injected.Total() == 0 {
				t.Error("no faults injected")
			}
		})
	}
}

// TestSoakDeterminism re-runs one seed and requires a byte-identical event
// trace (hash) and identical outcome counts.
func TestSoakDeterminism(t *testing.T) {
	a := Run(Config{Seed: 7})
	b := Run(Config{Seed: 7})
	if a.TraceHash != b.TraceHash {
		t.Fatalf("trace hash differs across runs of the same seed: %016x vs %016x", a.TraceHash, b.TraceHash)
	}
	if a.Completed != b.Completed || a.Failed != b.Failed || a.Makespan != b.Makespan {
		t.Fatalf("outcome differs: %v vs %v", a, b)
	}
	if a.Injected.String() != b.Injected.String() {
		t.Fatalf("fault tallies differ: [%s] vs [%s]", a.Injected, b.Injected)
	}
	c := Run(Config{Seed: 8})
	if c.TraceHash == a.TraceHash {
		t.Error("different seeds produced the same trace hash")
	}
}

// herdConfig is the thundering-herd soak: the regular fault storm plus
// overload bursts against a small admission plane, so all three decisions
// (admit, queue, shed) occur under fire.
func herdConfig(seed int64) Config {
	p := DefaultProfile()
	p.OverloadPerMin = 2
	p.OverloadBurst = 25
	return Config{
		Seed:    seed,
		Profile: &p,
		Flow:    &flow.Config{MaxQueue: 6, Rate: 5, Burst: 4},
		// Admission spreads the same work over more wall clock: a queued
		// oversized job can only start once the cluster is idle, so the
		// makespan tail is longer than the direct-submission soak's.
		Horizon: 14400 * sim.Second,
	}
}

// TestThunderingHerdSoak is the admission-control chaos gate: every
// submission — trace arrival or burst — gets exactly one decision, no
// admitted job is lost, shed and queued jobs never touch the scheduler,
// and the wait queue stays within its bound. -chaos.seeds widens it.
func TestThunderingHerdSoak(t *testing.T) {
	sawShed := false
	for seed := int64(0); seed < int64(*chaosSeeds); seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			res := Run(herdConfig(seed))
			t.Log(res)
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if !res.Quiesced {
				t.Error("simulation did not quiesce within the step budget")
			}
			if res.Injected.Get(KindOverload.String()) == 0 {
				t.Error("no overload bursts injected")
			}
			if res.FlowAdmitted == 0 {
				t.Error("no submissions admitted")
			}
			if res.FlowShed > 0 {
				sawShed = true
			}
		})
	}
	if !sawShed {
		t.Error("no seed ever shed load: the herd never overwhelmed the queue")
	}
}

// TestThunderingHerdDeterminism re-runs one herd seed and requires
// byte-identical traces and admission tallies.
func TestThunderingHerdDeterminism(t *testing.T) {
	a := Run(herdConfig(3))
	b := Run(herdConfig(3))
	if a.TraceHash != b.TraceHash {
		t.Fatalf("trace hash differs across runs of the same seed: %016x vs %016x", a.TraceHash, b.TraceHash)
	}
	if a.FlowAdmitted != b.FlowAdmitted || a.FlowShed != b.FlowShed || a.FlowQueuedEnd != b.FlowQueuedEnd {
		t.Fatalf("admission tallies differ: %v vs %v", a, b)
	}
	if a.Completed != b.Completed || a.Failed != b.Failed || a.Makespan != b.Makespan {
		t.Fatalf("outcome differs: %v vs %v", a, b)
	}
}

// TestAuditorActionArms drives the action-stream checks directly: the
// post-terminal rules for aborts and resends, and the attempt-floor reset
// a job restart implies. These arms close the exhaustive switch over
// core.ActionKind; this pins their behaviour.
func TestAuditorActionArms(t *testing.T) {
	newAuditor := func() *Auditor {
		cl := cluster.New(cluster.Config{Machines: 1, ExecutorsPerMachine: 1})
		return NewAuditor(core.NewController(cl, core.DefaultOptions()), cl)
	}
	ref := core.TaskRef{Job: "j", Stage: "s", Index: 0}
	job := core.TaskRef{Job: "j"}
	start := func(attempt int32) core.Action {
		return core.Action{Kind: core.ActStartTask, Task: ref, Attempt: attempt}
	}
	abort := core.Action{Kind: core.ActAbortTask, Task: ref, Attempt: 1}
	resend := core.Action{Kind: core.ActResend, Task: ref, Detail: &core.ActionDetail{FromStage: "up"}}

	a := newAuditor()
	a.OnAction(0, core.Action{Kind: core.ActJobCompleted, Task: job})
	a.OnAction(0, abort)
	a.OnAction(0, resend)
	if n := len(a.Violations()); n != 2 {
		t.Fatalf("want 2 post-terminal violations (abort, resend), got %d: %v", n, a.Violations())
	}

	// Before the job is terminal, the same actions are legal.
	b := newAuditor()
	b.OnAction(0, abort)
	b.OnAction(0, resend)
	if n := len(b.Violations()); n != 0 {
		t.Fatalf("abort/resend on a live job flagged: %v", b.Violations())
	}

	// A job restart resets the attempt floor and the terminal state:
	// attempt 1 may run again without tripping monotonicity, and the
	// re-run may complete again.
	c := newAuditor()
	c.OnAction(0, start(2))
	c.OnAction(0, core.Action{Kind: core.ActJobFailed, Task: job, Detail: &core.ActionDetail{Reason: "x"}})
	c.OnAction(0, core.Action{Kind: core.ActJobRestarted, Task: job})
	c.OnAction(0, start(1))
	c.OnAction(0, core.Action{Kind: core.ActJobCompleted, Task: job})
	if n := len(c.Violations()); n != 0 {
		t.Fatalf("restart did not reset audit state: %v", c.Violations())
	}

	// Without the restart, re-running attempt 1 after attempt 2 is the
	// monotonicity bug the auditor exists to catch.
	d := newAuditor()
	d.OnAction(0, start(2))
	d.OnAction(0, start(1))
	if n := len(d.Violations()); n != 1 {
		t.Fatalf("want 1 monotonicity violation, got %d: %v", n, d.Violations())
	}
}

// TestAuditorRendersLegacyActionText pins the line the auditor hashes for
// each action kind to the text fmt.Sprintf("%d|%T|%+v\n", …) gave when
// each kind was a struct type of its own. The soak summaries and the
// chaos golden hash are folded from these lines, so a rendering that
// drifts moves them all; the literals were printed by that older code.
func TestAuditorRendersLegacyActionText(t *testing.T) {
	ref := core.TaskRef{Job: "j", Stage: "M1", Index: 3}
	job := core.TaskRef{Job: "j"}
	for _, tc := range []struct {
		act  core.Action
		want string
	}{
		{core.Action{Kind: core.ActStartTask, Task: ref, Executor: 7, Stage: 1, Graphlet: 2, Attempt: 4, Reason: core.StartRetry},
			"1500000|core.ActStartTask|{Task:j/M1[3] Executor:7 Graphlet:2 Attempt:4 Reason:retry}\n"},
		{core.Action{Kind: core.ActStartTask, Task: ref, Executor: -1, Reason: core.StartReason(9)},
			"1500000|core.ActStartTask|{Task:j/M1[3] Executor:-1 Graphlet:0 Attempt:0 Reason:invalid}\n"},
		{core.Action{Kind: core.ActAbortTask, Task: ref, Executor: 7, Attempt: 4},
			"1500000|core.ActAbortTask|{Task:j/M1[3] Executor:7 Attempt:4}\n"},
		{core.Action{Kind: core.ActResend, Task: ref, Detail: &core.ActionDetail{FromStage: "M0"}},
			"1500000|core.ActResend|{To:j/M1[3] FromStage:M0}\n"},
		{core.Action{Kind: core.ActJobCompleted, Task: job},
			"1500000|core.ActJobCompleted|{Job:j}\n"},
		{core.Action{Kind: core.ActJobFailed, Task: job, Detail: &core.ActionDetail{Reason: "task j/M1[3] exceeded 3 retries"}},
			"1500000|core.ActJobFailed|{Job:j Reason:task j/M1[3] exceeded 3 retries}\n"},
		{core.Action{Kind: core.ActJobRestarted, Task: job},
			"1500000|core.ActJobRestarted|{Job:j}\n"},
		{core.Action{Kind: core.ActMachineReadOnly, Detail: &core.ActionDetail{Machine: 5}},
			"1500000|core.ActMachineReadOnly|{Machine:5}\n"},
		{core.Action{Kind: core.ActMachineHealthy, Detail: &core.ActionDetail{Machine: 6}},
			"1500000|core.ActMachineHealthy|{Machine:6}\n"},
		{core.Action{Kind: core.ActShuffleDegraded, Task: job, Detail: &core.ActionDetail{From: "M0", To: "M1", Old: shuffle.Remote, New: shuffle.Direct}},
			"1500000|core.ActShuffleDegraded|{Job:j From:M0 To:M1 Old:Remote New:Direct}\n"},
		{core.Action{Kind: core.ActReplicate, Task: ref, Attempt: 4, Detail: &core.ActionDetail{Machines: []cluster.MachineID{1, 2, 3}}},
			"1500000|core.ActReplicate|{Task:j/M1[3] Attempt:4 Machines:[1 2 3]}\n"},
		{core.Action{Kind: core.ActReplicate, Task: ref, Attempt: 1, Detail: &core.ActionDetail{}},
			"1500000|core.ActReplicate|{Task:j/M1[3] Attempt:1 Machines:[]}\n"},
	} {
		if got := actionLine(1500000, &tc.act); got != tc.want {
			t.Errorf("kind %d renders\n  %q\nwant\n  %q", tc.act.Kind, got, tc.want)
		}
	}
}

// fairConfig is `swiftchaos -fair`: the multi-tenant fairness soak under the
// regular fault storm.
func fairConfig(seed int64) Config {
	c := Config{Seed: seed}
	c.UseFairShare()
	return c
}

// TestFairShareSoak: the fair-share policy under the fault storm must
// keep every scheduler invariant, never let the quota-capped tenant run
// above its quota, and never starve a tenant while others complete.
func TestFairShareSoak(t *testing.T) {
	for seed := int64(0); seed < int64(*chaosSeeds); seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			res := Run(fairConfig(seed))
			t.Log(res)
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if !res.Quiesced {
				t.Error("simulation did not quiesce within the step budget")
			}
			if len(res.Tenants) != 3 {
				t.Fatalf("tenant tallies = %d, want 3", len(res.Tenants))
			}
			for _, tr := range res.Tenants {
				if tr.Submitted == 0 {
					t.Errorf("tenant %s submitted no jobs", tr.Name)
				}
			}
		})
	}
}

// TestFairShareSoakDeterminism: the fair policy's trace hash — which now
// folds tenant tallies, reclaim counts, share events and the fault
// schedule — must reproduce exactly per seed.
func TestFairShareSoakDeterminism(t *testing.T) {
	a := Run(fairConfig(3))
	b := Run(fairConfig(3))
	if a.TraceHash != b.TraceHash {
		t.Fatalf("fair soak hash differs: %016x vs %016x", a.TraceHash, b.TraceHash)
	}
	if a.Reclaims != b.Reclaims || a.Completed != b.Completed {
		t.Fatalf("fair soak outcome differs: %v vs %v", a, b)
	}
}

// The fair-share preset's auditor enforces the quota its policy declares,
// and no other: Run reads it off the policy's shares.
func TestFairSharePresetDerivesQuotas(t *testing.T) {
	if got, want := tenantQuotas(fairConfig(0).withDefaults()), map[string]int{"c": 30}; !maps.Equal(got, want) {
		t.Errorf("fair-share preset quotas = %v, want %v", got, want)
	}
	if got := tenantQuotas(Config{Tenants: fairConfig(0).Tenants}.withDefaults()); len(got) != 0 {
		t.Errorf("FIFO quotas = %v, want none", got)
	}
}

// The hard-quota invariant fires: FIFO caps no tenant, so a quota below
// what one tenant runs is a violation at the next state sweep.
func TestAuditorFlagsTenantAboveQuota(t *testing.T) {
	cl := cluster.New(cluster.Config{Machines: 1, ExecutorsPerMachine: 4})
	ctrl := core.NewController(cl, core.DefaultOptions())
	a := NewAuditor(ctrl, cl)
	job := dag.NewBuilder("j").Stage("A", 4, dag.Op(dag.OpTableScan)).MustBuild()
	job.Tenant = "a"
	if err := ctrl.SubmitJob(job); err != nil {
		t.Fatal(err)
	}
	ctrl.Drain()
	a.CheckNow(0)
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("violations before arming a quota: %v", v)
	}
	a.SetTenantQuotas(map[string]int{"a": 3})
	a.CheckNow(0)
	if v := a.Violations(); len(v) != 1 || !strings.Contains(v[0], "tenant a runs 4 tasks above its quota 3") {
		t.Fatalf("violations = %q, want tenant a above its quota", v)
	}
}
