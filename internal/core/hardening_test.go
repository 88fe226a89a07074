package core

// Minimized regression tests for the recovery-path hardening the chaos
// soak uncovered. Each test documents the pre-hardening failure mode and
// fails against the pre-fix controller.

import (
	"slices"
	"strings"
	"testing"

	"swift/internal/cluster"
	"swift/internal/dag"
	"swift/internal/shuffle"
)

// Pre-fix: TaskFinished reused a freed executor for the next pending task
// of the same graphlet without checking machine health, so a draining
// (read-only) machine kept receiving new tasks — violating the Section
// IV-A contract that a read-only machine only finishes what it already
// runs.
func TestNoNewTasksOnReadOnlyMachineAfterReuse(t *testing.T) {
	// 2 machines × 2 executors and a 6-task gang: pending tasks remain
	// when the gang launches, so every completion frees an executor that
	// the pre-fix controller would hand straight to the next pending
	// task, regardless of the machine's health.
	h := newHarness(t, 2, 2, DefaultOptions())
	h.submit(pipelineJob("j", 3, 3)) // 6 tasks, 4 executors: 2 pending
	if len(h.running) != 4 {
		t.Fatalf("want 4 running, got %d", len(h.running))
	}
	h.c.MachineUnhealthy(0)
	h.drain()
	marker := len(h.starts)
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job did not complete after read-only drain")
	}
	for _, s := range h.starts[marker:] {
		if h.cl.MachineOf(s.Executor) == 0 {
			t.Fatalf("task %s launched on read-only machine 0 after drain began", s.Task)
		}
	}
}

// Pre-fix: TaskOutputLost never counted retries, so an output that keeps
// being lost (flapping Cache Worker) re-ran its producer forever instead
// of failing the job once the retry budget was spent.
func TestRepeatedOutputLossIsBounded(t *testing.T) {
	h := newHarness(t, 2, 4, DefaultOptions())
	// A[1] never finishes, so B's graphlet stays gated and B[0] stays
	// pending — meaning A[0]'s buffered output is always "still needed"
	// when it vanishes.
	h.submit(barrierJob("j", 2, 1))
	h.finish(ref("j", "A", 0))

	for i := 0; i < maxTaskRetries+2; i++ {
		h.c.TaskOutputLost(ref("j", "A", 0))
		h.drain()
		if h.jobFailed("j") {
			break
		}
		if _, ok := h.running[ref("j", "A", 0)]; !ok {
			t.Fatal("A[0] not re-run after a needed output loss")
		}
		h.finish(ref("j", "A", 0))
	}
	if !h.jobFailed("j") {
		t.Fatalf("job survived %d output losses; output-loss recovery is unbounded", maxTaskRetries+2)
	}
	found := false
	for _, a := range h.events {
		if a.Kind == ActJobFailed && strings.Contains(a.Detail.Reason, "lost output") {
			found = true
		}
	}
	if !found {
		t.Error("ActJobFailed does not name the lost-output retry exhaustion")
	}
}

// Pre-fix: an output lost while "not needed" (all consumers running/done)
// was forgotten entirely. When a consumer later re-entered the pending
// state — here via a crash-retry — it would launch against producer data
// that no longer exists. The fix records the loss and revives the
// producer the moment any consumer becomes pending again.
func TestLostOutputRevivedWhenConsumerRetries(t *testing.T) {
	h := newHarness(t, 2, 4, DefaultOptions())
	h.submit(barrierJob("j", 1, 2))
	h.finish(ref("j", "A", 0))
	if len(h.running) != 2 {
		t.Fatalf("B not fully running: %v", h.running)
	}
	// All B tasks are running, so losing A[0]'s output takes "no step".
	before := len(h.starts)
	h.c.TaskOutputLost(ref("j", "A", 0))
	h.drain()
	if len(h.starts) != before {
		t.Fatalf("output loss with running consumers must take no step")
	}
	// Now a B task crashes: its retry needs A's output again, so A[0]
	// must re-run before/with it.
	h.fail(ref("j", "B", 0), FailCrash)
	if _, ok := h.running[ref("j", "A", 0)]; !ok {
		t.Fatal("producer with lost output not revived when consumer re-entered pending")
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job did not complete after revival")
	}
}

// Pre-fix: a producer revived because a consumer re-entered the pending
// state re-ran without cascading, even when it was not idempotent, so a
// done consumer kept rows the re-run replaced (Fig. 6b). Minimized by the
// controller fuzzer's start-order oracle: A[0]'s output is lost while B[1]
// still runs (no step), then B[1] crashes and revives A[0]; the done B[0]
// must re-run after it.
func TestRevivedNonIdempotentProducerCascades(t *testing.T) {
	j := dag.NewBuilder("j").
		StageOpt(&dag.Stage{Name: "A", Tasks: 1, Idempotent: false}).
		StageOpt(&dag.Stage{Name: "B", Tasks: 2, Idempotent: true}).
		Pipeline("A", "B", 1<<20).
		MustBuild()
	h := newHarness(t, 2, 1, DefaultOptions())
	h.submit(j)
	h.finish(ref("j", "A", 0)) // its executor goes to B[1]
	h.finish(ref("j", "B", 0))
	h.c.TaskOutputLost(ref("j", "A", 0))
	h.drain()
	before := len(h.starts)
	h.fail(ref("j", "B", 1), FailCrash)
	var relaunched []TaskRef
	for _, s := range h.starts[before:] {
		relaunched = append(relaunched, s.Task)
		if s.Task == ref("j", "B", 0) && s.Reason != StartCascade {
			t.Errorf("B[0] relaunched with reason %v, want a cascade", s.Reason)
		}
	}
	if len(relaunched) == 0 || relaunched[0] != ref("j", "A", 0) || !slices.Contains(relaunched, ref("j", "B", 0)) {
		t.Fatalf("after the revival the starts are %v; want A[0] first and the done B[0] again", relaunched)
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job did not complete after the cascade")
	}
}

// Pre-fix: when recovery re-pended a producer task after its consumers
// had already launched, the consumers could occupy every executor waiting
// for data the producer can no longer regenerate — a permanent
// executor deadlock. Minimized from a chaos-soak schedule: a machine
// crash kills a finished producer's buffered output and one consumer,
// while the surviving consumer holds the last executor. The fix launches
// re-pended work upstream-first and, when the pool is dry with starved
// requests queued, preempts one downstream consumer to free an executor.
func TestRecoveryDeadlockBrokenByPreemption(t *testing.T) {
	h := newHarness(t, 2, 1, DefaultOptions())
	h.submit(barrierJob("j", 1, 2)) // A gates B; 2 executors total
	mA := h.cl.MachineOf(h.running[ref("j", "A", 0)].Executor)
	h.finish(ref("j", "A", 0))
	if len(h.running) != 2 {
		t.Fatalf("B not fully running: %v", h.running)
	}
	// The crash takes down A[0]'s buffered output and one B task; the
	// surviving B task holds the only live executor while needing A's
	// data, and A[0] needs an executor to regenerate it.
	h.crash(mA)
	if _, ok := h.running[ref("j", "A", 0)]; !ok {
		t.Fatal("producer A[0] not relaunched: consumers hold every executor and the scheduler is deadlocked")
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job did not complete after deadlock recovery")
	}
}

// Pre-fix: the deadlock breaker passed over every gang waiting on a wet
// pool as short of executors. Found by FuzzController: two whole-job
// gangs of a pipeline A → B on two executors; j1 waits behind j0, then
// j0's producer crashes. Its retry needs the one free executor, but the
// walk stops at j1's gang, which j0's parked consumer keeps from ever
// fitting. Only a gang larger than the free pool is passed over now, so
// j0's consumer is preempted and j0 relaunches whole, A and B together
// (the breaker preempts on every step; see breakDeadlock).
func TestRependedGangBehindWaitingGangRuns(t *testing.T) {
	opts := DefaultOptions()
	opts.Partition = WholeJobPartition
	h := newHarness(t, 2, 1, opts)
	h.submit(pipelineJob("j0", 1, 1))
	h.submit(pipelineJob("j1", 1, 1))
	before := len(h.events)
	h.fail(ref("j0", "A", 0), FailCrash)
	if _, ok := h.running[ref("j0", "A", 0)]; !ok {
		t.Fatal("j0's producer not relaunched: the walk stops at j1's gang and j0's consumer holds the executor it needs")
	}
	var aborted, restarted bool
	for _, a := range h.events[before:] {
		switch {
		case a.Kind == ActAbortTask && a.Task == ref("j0", "B", 0):
			aborted = true
		case a.Kind == ActStartTask && a.Task == ref("j0", "B", 0):
			restarted = aborted
		}
	}
	if !aborted || !restarted {
		t.Fatalf("j0's consumer preempted %v, relaunched after it %v: want both", aborted, restarted)
	}
	h.finishAll()
	if !h.completed("j0") || !h.completed("j1") {
		t.Fatal("a job did not complete")
	}
}

// MachineRecovered re-admits a drained machine: its executors return to
// the pool, the failure counter resets, and queued work can use it.
func TestMachineRecoveredReadmitsDrainedMachine(t *testing.T) {
	h := newHarness(t, 2, 2, DefaultOptions())
	h.submit(pipelineJob("j", 2, 2)) // fills all 4 executors
	h.c.MachineUnhealthy(0)
	h.drain()
	if h.cl.Machine(0).Health != cluster.ReadOnly {
		t.Fatal("machine 0 not read-only")
	}
	// Drain machine 0 completely.
	for r, a := range h.running {
		if h.cl.MachineOf(a.Executor) == 0 {
			h.finish(r)
		}
	}
	if free := h.cl.FreeExecutors(); free != 0 {
		t.Fatalf("read-only machine's executors re-pooled: %d free", free)
	}
	h.c.MachineRecovered(0)
	h.drain()
	if h.cl.Machine(0).Health != cluster.Healthy {
		t.Fatal("machine 0 not healthy after recovery")
	}
	if free := h.cl.FreeExecutors(); free != 2 {
		t.Fatalf("want 2 free executors after re-admission, got %d", free)
	}
	saw := false
	for _, a := range h.events {
		if a.Kind == ActMachineHealthy && a.Detail.Machine == 0 {
			saw = true
		}
	}
	if !saw {
		t.Error("no ActMachineHealthy emitted")
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job not completed")
	}
}

// CacheWorkerLost fans one worker crash out to every completed task whose
// output lived there, re-running the needed ones and degrading their
// Cache-Worker-backed out-edges to Direct.
func TestCacheWorkerLostFanOutAndDegrade(t *testing.T) {
	opts := DefaultOptions()
	// Force a Cache-Worker-dependent mode so degradation is observable.
	opts.Shuffle = FixedShuffle(shuffle.Remote)
	h := newHarness(t, 2, 4, opts)
	// A[1] keeps running, so B's graphlet is still gated and B's pending
	// tasks make A[0]'s hosted output "still needed" when the worker dies.
	h.submit(barrierJob("j", 2, 2))
	a0 := h.running[ref("j", "A", 0)].Executor
	machine := h.cl.MachineOf(a0)
	h.finish(ref("j", "A", 0))
	h.c.CacheWorkerLost(machine)
	h.drain()
	// Every A task that ran on `machine` must be re-running.
	relaunched := false
	for r, a := range h.running {
		if r.Stage == "A" && a.Attempt > 1 {
			relaunched = true
		}
	}
	if !relaunched {
		t.Fatal("cache-worker crash did not re-run hosted outputs")
	}
	if got := h.c.edgeMode("j", "A", "B"); got != shuffle.Direct {
		t.Fatalf("edge A->B mode = %v after cache-worker loss, want Direct", got)
	}
	saw := false
	for _, a := range h.events {
		if d := a.Detail; a.Kind == ActShuffleDegraded && d.From == "A" && d.Old == shuffle.Remote && d.New == shuffle.Direct {
			saw = true
		}
	}
	if !saw {
		t.Error("no ActShuffleDegraded emitted")
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job not completed after cache-worker loss")
	}
}

// Read-only drain end to end: a MachineUnhealthy machine finishes its
// running tasks, receives no new ones, and the cluster never re-pools its
// executors until recovery.
func TestReadOnlyDrainPath(t *testing.T) {
	h := newHarness(t, 3, 2, DefaultOptions())
	h.submit(pipelineJob("j", 4, 4)) // 8 tasks > 6 executors
	running0 := 0
	for _, a := range h.running {
		if h.cl.MachineOf(a.Executor) == 0 {
			running0++
		}
	}
	if running0 == 0 {
		t.Fatal("no tasks on machine 0")
	}
	h.c.MachineUnhealthy(0)
	h.drain()
	// Running tasks on machine 0 are NOT aborted by the drain.
	still := 0
	for _, a := range h.running {
		if h.cl.MachineOf(a.Executor) == 0 {
			still++
		}
	}
	if still != running0 {
		t.Fatalf("drain aborted running tasks: %d -> %d", running0, still)
	}
	startsBefore := len(h.starts)
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job not completed during drain")
	}
	for _, s := range h.starts[startsBefore:] {
		if h.cl.MachineOf(s.Executor) == 0 {
			t.Fatalf("new task %s launched on read-only machine 0", s.Task)
		}
	}
	if h.cl.BusyExecutors() != 0 {
		t.Error("machine 0 not fully drained")
	}
}

// CheckInvariants is clean across the ordinary lifecycle and recovery
// events of a job.
func TestCheckInvariantsCleanOnHappyAndRecoveryPaths(t *testing.T) {
	h := newHarness(t, 2, 4, DefaultOptions())
	check := func(stage string) {
		if v := h.c.CheckInvariants(); len(v) > 0 {
			t.Fatalf("invariant violations at %s: %v", stage, v)
		}
	}
	h.submit(barrierJob("j", 2, 2))
	check("submit")
	h.fail(ref("j", "A", 0), FailCrash)
	check("task failure")
	h.finish(ref("j", "A", 1))
	check("partial finish")
	h.c.MachineUnhealthy(1)
	h.drain()
	check("read-only")
	h.c.MachineRecovered(1)
	h.drain()
	check("recovered")
	h.finishAll()
	check("drained")
	if !h.completed("j") {
		t.Fatal("job not completed")
	}
}
