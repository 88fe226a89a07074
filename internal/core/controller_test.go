package core

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"swift/internal/cluster"
	"swift/internal/dag"
	"swift/internal/sched"
	"swift/internal/shuffle"
)

// harness drives a Controller from tests: it tracks running tasks from the
// action stream and lets tests complete or fail them, and it tracks the
// machines that are down — crashed through crash, or drained to read-only
// by the health monitor — so readmit can bring them back.
type harness struct {
	t       *testing.T
	c       *Controller
	cl      *cluster.Cluster
	running map[TaskRef]Action // the starts of the running tasks
	down    map[cluster.MachineID]bool
	starts  []Action
	resends []Action
	events  []Action
}

func newHarness(t *testing.T, machines, execsPer int, opts Options) *harness {
	cl := cluster.New(cluster.Config{Machines: machines, ExecutorsPerMachine: execsPer})
	return &harness{t: t, c: NewController(cl, opts), cl: cl,
		running: make(map[TaskRef]Action), down: make(map[cluster.MachineID]bool)}
}

func (h *harness) drain() {
	for _, a := range h.c.Drain() {
		h.events = append(h.events, a)
		switch a.Kind {
		case ActStartTask:
			h.running[a.Task] = a
			h.starts = append(h.starts, a)
		case ActAbortTask:
			if cur, ok := h.running[a.Task]; ok && cur.Attempt == a.Attempt {
				delete(h.running, a.Task)
			}
		case ActResend:
			h.resends = append(h.resends, a)
		case ActMachineReadOnly:
			h.down[a.Detail.Machine] = true
		case ActMachineHealthy:
			delete(h.down, a.Detail.Machine)
		}
	}
}

func (h *harness) submit(j *dag.Job) {
	h.t.Helper()
	if err := h.c.SubmitJob(j); err != nil {
		h.t.Fatal(err)
	}
	h.drain()
}

func (h *harness) finish(ref TaskRef) {
	h.t.Helper()
	a, ok := h.running[ref]
	if !ok {
		h.t.Fatalf("finish of non-running task %s", ref)
	}
	delete(h.running, ref)
	h.c.TaskFinished(ref, int(a.Attempt))
	h.drain()
}

// finishAll completes running tasks (including newly started waves) until
// none remain or the predicate stops matching.
func (h *harness) finishAll() {
	for len(h.running) > 0 {
		for ref := range h.running {
			h.finish(ref)
			break
		}
	}
}

func (h *harness) fail(ref TaskRef, kind FailureKind) {
	h.t.Helper()
	a, ok := h.running[ref]
	if !ok {
		h.t.Fatalf("fail of non-running task %s", ref)
	}
	delete(h.running, ref)
	h.c.TaskFailed(ref, int(a.Attempt), kind)
	h.drain()
}

// crash fails a machine; the drained actions abort its running tasks.
func (h *harness) crash(id cluster.MachineID) {
	h.down[id] = true
	h.c.MachineFailed(id)
	h.drain()
}

// restart reports a fresh start of executor e, whose task died unaborted.
func (h *harness) restart(e cluster.ExecutorID) {
	for ref, a := range h.running {
		if a.Executor == e {
			delete(h.running, ref)
		}
	}
	h.c.ExecutorRestarted(e)
	h.drain()
}

// readmit brings every down machine back in id order, as simrun's
// RebootMachine and RecoverMachine do once their delays have passed.
func (h *harness) readmit() {
	for id := range cluster.MachineID(h.cl.NumMachines()) {
		if h.down[id] {
			h.c.MachineRecovered(id)
			h.drain()
		}
	}
}

func (h *harness) completed(job string) bool {
	for _, a := range h.events {
		if a.Kind == ActJobCompleted && a.Task.Job == job {
			return true
		}
	}
	return false
}

func (h *harness) jobFailed(job string) bool {
	for _, a := range h.events {
		if a.Kind == ActJobFailed && a.Task.Job == job {
			return true
		}
	}
	return false
}

func pipelineJob(id string, aTasks, bTasks int) *dag.Job {
	return dag.NewBuilder(id).
		Stage("A", aTasks, dag.Op(dag.OpTableScan), dag.Op(dag.OpShuffleWrite)).
		Stage("B", bTasks, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpAdhocSink)).
		Pipeline("A", "B", 1<<20).
		MustBuild()
}

func barrierJob(id string, aTasks, bTasks int) *dag.Job {
	return dag.NewBuilder(id).
		Stage("A", aTasks, dag.Op(dag.OpTableScan), dag.Op(dag.OpMergeSort), dag.Op(dag.OpShuffleWrite)).
		Stage("B", bTasks, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpAdhocSink)).
		Barrier("A", "B", 1<<20).
		MustBuild()
}

func ref(job, stage string, i int) TaskRef { return TaskRef{Job: job, Stage: stage, Index: i} }

func TestSimplePipelineJobCompletes(t *testing.T) {
	h := newHarness(t, 4, 4, DefaultOptions())
	h.submit(pipelineJob("j", 3, 2))
	// Pipeline graphlet: all 5 tasks gang launched together.
	if len(h.running) != 5 {
		t.Fatalf("running = %d, want 5", len(h.running))
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job not completed")
	}
	if h.cl.BusyExecutors() != 0 {
		t.Errorf("executors leaked: %d busy", h.cl.BusyExecutors())
	}
	if !h.c.JobDone("j") || h.c.JobFailed("j") {
		t.Error("job state wrong")
	}
}

func TestBarrierDefersSecondGraphlet(t *testing.T) {
	h := newHarness(t, 4, 4, DefaultOptions())
	h.submit(barrierJob("j", 2, 3))
	if len(h.running) != 2 {
		t.Fatalf("running = %d, want only stage A's 2 tasks", len(h.running))
	}
	h.finish(ref("j", "A", 0))
	if _, ok := h.running[ref("j", "B", 0)]; ok {
		t.Fatal("B started before A completed")
	}
	h.finish(ref("j", "A", 1))
	if len(h.running) != 3 {
		t.Fatalf("after A done, running = %d, want B's 3 tasks", len(h.running))
	}
	if j := h.c.Handle("j"); !h.c.StageComplete(j, 0) || h.c.StageComplete(j, 1) { // A, B in topological order
		t.Error("StageComplete wrong")
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job not completed")
	}
}

func TestWavesUnderPartialAllocation(t *testing.T) {
	// 2 executors for 6 tasks: waves of 2.
	h := newHarness(t, 1, 2, DefaultOptions())
	h.submit(pipelineJob("j", 6, 1))
	if len(h.running) != 2 {
		t.Fatalf("first wave = %d, want 2", len(h.running))
	}
	h.finishAll() // each finish frees an executor for the next pending task
	if !h.completed("j") {
		t.Fatal("job not completed")
	}
	if len(h.starts) != 7 {
		t.Errorf("total starts = %d, want 7", len(h.starts))
	}
}

func TestGangUnitWaitsForFullAllocation(t *testing.T) {
	opts := DefaultOptions()
	opts.Partition = WholeJobPartition
	h := newHarness(t, 1, 6, opts)
	h.submit(pipelineJob("small", 2, 1))
	if len(h.running) != 3 {
		t.Fatalf("gang unit that fits launched %d tasks, want 3", len(h.running))
	}
	h.submit(pipelineJob("big", 2, 2)) // needs 4 > 3 free executors
	if len(h.running) != 3 {
		t.Fatalf("gang unit launched in part: running = %d, want 3", len(h.running))
	}
	// tiny would fit beside small, but a waiting gang unit blocks the queue
	// behind it.
	h.submit(pipelineJob("tiny", 1, 1))
	if len(h.running) != 3 {
		t.Fatalf("request served past a waiting gang unit: running = %d, want 3", len(h.running))
	}
	// One completion makes room for all of big; it launches whole and
	// leaves nothing for tiny.
	h.finish(ref("small", "A", 0))
	if len(h.running) != 6 {
		t.Fatalf("gang unit did not launch once it fit: running = %d, want 6", len(h.running))
	}
	if _, ok := h.running[ref("tiny", "A", 0)]; ok {
		t.Fatal("tiny launched ahead of big")
	}
	h.finishAll()
	for _, j := range []string{"small", "big", "tiny"} {
		if !h.completed(j) {
			t.Fatalf("%s not completed", j)
		}
	}
}

// A gang launches whole or not at all, so one larger than the configured
// cluster is refused at admission with a reason naming both counts, where
// it used to wait for ever; a gang as large as the cluster still runs.
func TestOversizeGangRefusedAtSubmit(t *testing.T) {
	opts := DefaultOptions()
	opts.Partition = WholeJobPartition
	h := newHarness(t, 2, 2, opts)
	h.submit(pipelineJob("big", 3, 2)) // 5 tasks, 4 executors
	var failed []Action
	for _, a := range h.events {
		switch a.Kind {
		case ActJobFailed:
			failed = append(failed, a)
		case ActStartTask:
			t.Errorf("oversize gang started %s", a.Task)
		}
	}
	if len(failed) != 1 || failed[0].Task.Job != "big" ||
		!strings.Contains(failed[0].Detail.Reason, "5") || !strings.Contains(failed[0].Detail.Reason, "4") {
		t.Fatalf("want one ActJobFailed for big naming 5 tasks and 4 executors, got %+v", failed)
	}
	if !h.c.JobFailed("big") {
		t.Error("JobFailed(big) = false")
	}
	h.submit(pipelineJob("fits", 2, 2)) // 4 tasks, 4 executors
	h.finishAll()
	if !h.completed("fits") {
		t.Error("a gang as large as the cluster did not complete")
	}
}

// A gang unit waiting on a wet pool is never starved, under every policy:
// preempting the gang's own parked consumer frees one executor and
// re-pends one task, which never makes the gang fit, so the deadlock
// breaker passes it over (under FIFO the nil plan's walk also stops at
// it). Here a crash re-pends A[0] (its output was on the machine) and B[0]
// of a whole-job gang with one executor free; the surviving B keeps
// running until the machine returns and the gang fits.
func TestNilPlanLeavesWaitingGangsConsumersRunning(t *testing.T) {
	for _, policy := range []sched.Policy{sched.FIFO{}, sched.NewFairShare(sched.FairShareConfig{})} {
		opts := DefaultOptions()
		opts.Partition = WholeJobPartition
		opts.Policy = policy
		h := newHarness(t, 2, 2, opts)
		h.submit(pipelineJob("j", 2, 2))
		h.finish(ref("j", "A", 0))
		h.finish(ref("j", "A", 1))
		mOf := func(task TaskRef) cluster.MachineID {
			for _, s := range h.starts {
				if s.Task == task {
					return h.cl.MachineOf(s.Executor)
				}
			}
			t.Fatalf("%s: %s never started", policy.Name(), task)
			return 0
		}
		m := mOf(ref("j", "B", 0))
		survivor := ref("j", "B", 1)
		if mOf(ref("j", "A", 0)) != m || mOf(survivor) == m {
			t.Fatalf("%s: placement changed: want A[0] and B[0] on machine %d, B[1] elsewhere; starts %+v",
				policy.Name(), m, h.starts)
		}
		h.crash(m)
		if _, ok := h.running[survivor]; !ok || len(h.running) != 1 || h.cl.FreeExecutors() != 1 {
			t.Fatalf("%s: after the crash %v run with %d executors free; want %s alone, one free",
				policy.Name(), h.running, h.cl.FreeExecutors(), survivor)
		}
		h.readmit()
		if len(h.running) != 3 || h.running[survivor].Attempt != 1 {
			t.Fatalf("%s: after the machine returned %v run; want the gang's two re-pended tasks beside %s's first attempt",
				policy.Name(), h.running, survivor)
		}
		h.finishAll()
		if !h.completed("j") {
			t.Fatalf("%s: job not completed", policy.Name())
		}
	}
}

// The live-job order is what every sweep walks — recovery's eachLiveTask on
// each machine, Cache Worker or executor loss, LiveJobs, CheckInvariants —
// so it must shrink as jobs retire, or an always-on controller pays for
// every job it ever ran. The gang list the preempt round reads (c.gangs,
// kept under every policy) must shrink with it.
func TestOrderHoldsLiveJobsOnly(t *testing.T) {
	for _, policy := range []sched.Policy{sched.FIFO{}, sched.NewFairShare(sched.FairShareConfig{})} {
		opts := DefaultOptions()
		opts.Policy = policy
		h := newHarness(t, 4, 4, opts)
		for _, id := range []string{"j0", "j1", "j2", "j3", "j4"} {
			h.submit(pipelineJob(id, 1, 1))
		}
		h.finish(ref("j1", "A", 0))
		h.finish(ref("j1", "B", 0))
		if err := h.c.CancelJob("j3", "test"); err != nil {
			t.Fatal(err)
		}
		h.drain()
		if !h.completed("j1") || !h.jobFailed("j3") {
			t.Fatalf("%s: j1 not completed or j3 not failed", policy.Name())
		}
		want := []string{"j0", "j2", "j4"}
		if got := h.c.LiveJobs(); !slices.Equal(got, want) {
			t.Errorf("%s: LiveJobs = %v, want %v", policy.Name(), got, want)
		}
		var walked []string
		h.c.eachLiveTask(func(at taskAt, _ *taskState) {
			if !slices.Contains(walked, at.m.job.ID) {
				walked = append(walked, at.m.job.ID)
			}
		})
		if !slices.Equal(walked, want) {
			t.Errorf("%s: eachLiveTask walked %v, want %v", policy.Name(), walked, want)
		}
		var ganged []string
		for _, g := range h.c.gangs {
			ganged = append(ganged, g.Job)
		}
		if !slices.Equal(ganged, want) {
			t.Errorf("%s: the gang list holds %v, want %v", policy.Name(), ganged, want)
		}
		if v := h.c.CheckInvariants(); len(v) > 0 {
			t.Errorf("%s: invariants: %v", policy.Name(), v)
		}
		h.finishAll()
		if n := len(h.c.order); n != 0 {
			t.Errorf("%s: %d jobs still in the live order after all retired", policy.Name(), n)
		}
	}
}

func TestIdempotentRetryWithResend(t *testing.T) {
	h := newHarness(t, 4, 4, DefaultOptions())
	h.submit(pipelineJob("j", 2, 2))
	h.finish(ref("j", "A", 0))
	h.finish(ref("j", "A", 1))
	victim := ref("j", "B", 0)
	first := h.running[victim].Attempt
	h.fail(victim, FailCrash)
	again, ok := h.running[victim]
	if !ok {
		t.Fatal("failed task not relaunched")
	}
	if again.Attempt != first+1 || again.Reason != StartRetry {
		t.Errorf("relaunch attempt=%d reason=%v", again.Attempt, again.Reason)
	}
	// Same-graphlet pipeline parent must re-send its buffered output.
	if len(h.resends) != 1 || h.resends[0].Detail.FromStage != "A" || h.resends[0].Task != victim {
		t.Errorf("resends = %v", h.resends)
	}
	// A and B's other task must not re-run.
	for _, s := range h.starts {
		if s.Task.Stage == "A" && s.Attempt > 1 {
			t.Error("idempotent recovery re-ran a predecessor")
		}
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job not completed after recovery")
	}
}

func TestNonIdempotentCascade(t *testing.T) {
	j := dag.NewJob("j")
	for _, s := range []*dag.Stage{
		{Name: "A", Tasks: 1, Idempotent: false},
		{Name: "B", Tasks: 2, Idempotent: true},
		{Name: "C", Tasks: 1, Idempotent: true},
	} {
		if err := j.AddStage(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []*dag.Edge{{From: "A", To: "B", Mode: dag.Pipeline}, {From: "B", To: "C", Mode: dag.Pipeline}} {
		if err := j.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	h := newHarness(t, 4, 4, DefaultOptions())
	h.submit(j)
	if len(h.running) != 4 {
		t.Fatalf("running = %d", len(h.running))
	}
	// Let one successor finish, keep others running, then fail A.
	h.finish(ref("j", "B", 0))
	h.fail(ref("j", "A", 0), FailCrash)
	// A re-runs, finished B[0] re-runs (cascade), running B[1] and C[0]
	// aborted and re-run.
	wantRunning := map[TaskRef]int32{ // task → attempt
		ref("j", "A", 0): 2, ref("j", "B", 0): 2,
		ref("j", "B", 1): 2, ref("j", "C", 0): 2,
	}
	if len(h.running) != len(wantRunning) {
		t.Fatalf("running after cascade = %v", h.running)
	}
	for r, attempt := range wantRunning {
		if got, ok := h.running[r]; !ok || got.Attempt != attempt {
			t.Errorf("missing relaunch of %s", r)
		}
	}
	for _, s := range h.starts[4:] {
		if s.Task.Stage != "A" && s.Reason != StartCascade {
			t.Errorf("successor %s relaunched with reason %v", s.Task, s.Reason)
		}
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job not completed")
	}
}

func TestAppErrorFailsJobWithoutRecovery(t *testing.T) {
	h := newHarness(t, 2, 2, DefaultOptions())
	h.submit(pipelineJob("j", 1, 1))
	h.fail(ref("j", "A", 0), FailAppError)
	if !h.jobFailed("j") {
		t.Fatal("job not failed")
	}
	if len(h.running) != 0 {
		t.Errorf("tasks still running after job failure: %v", h.running)
	}
	if h.cl.BusyExecutors() != 0 {
		t.Error("executors leaked after job failure")
	}
	if !h.c.JobFailed("j") {
		t.Error("JobFailed() = false")
	}
}

func TestRetryExhaustionFailsJob(t *testing.T) {
	h := newHarness(t, 2, 2, DefaultOptions())
	h.submit(pipelineJob("j", 1, 1))
	for i := 0; i < maxTaskRetries; i++ {
		h.fail(ref("j", "A", 0), FailCrash)
		if h.jobFailed("j") {
			t.Fatalf("job failed after %d retries, limit is %d", i+1, maxTaskRetries)
		}
	}
	h.fail(ref("j", "A", 0), FailCrash)
	if !h.jobFailed("j") {
		t.Fatal("job not failed after exhausting retries")
	}
}

func TestJobRestartPolicy(t *testing.T) {
	opts := DefaultOptions()
	opts.Recovery = JobRestart
	h := newHarness(t, 4, 4, opts)
	h.submit(barrierJob("j", 2, 2))
	h.finish(ref("j", "A", 0))
	h.fail(ref("j", "A", 1), FailCrash)
	restarted := false
	for _, a := range h.events {
		if a.Kind == ActJobRestarted {
			restarted = true
		}
	}
	if !restarted {
		t.Fatal("no restart action")
	}
	// Everything (including the finished A[0]) runs again.
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job not completed after restart")
	}
	aStarts := 0
	for _, s := range h.starts {
		if s.Task == ref("j", "A", 0) {
			aStarts++
		}
	}
	if aStarts != 2 {
		t.Errorf("A[0] started %d times, want 2", aStarts)
	}
}

func TestMachineFailureRecoversRunningAndLostOutputs(t *testing.T) {
	h := newHarness(t, 2, 4, DefaultOptions())
	h.submit(barrierJob("j", 2, 2))
	// Finish A entirely; B starts; then the machine hosting A[0]'s
	// output fails while B is running.
	a0Exec := h.running[ref("j", "A", 0)].Executor
	failedMachine := h.cl.MachineOf(a0Exec)
	h.finish(ref("j", "A", 0))
	h.finish(ref("j", "A", 1))
	if len(h.running) != 2 {
		t.Fatalf("B not started: %v", h.running)
	}
	h.crash(failedMachine)
	// A[0]'s Cache Worker output was lost and B is not done consuming:
	// A[0] must re-run. Any B task on the failed machine re-runs too.
	if _, ok := h.running[ref("j", "A", 0)]; !ok {
		t.Error("lost output of A[0] not regenerated")
	}
	if h.cl.Machine(failedMachine).Health != cluster.Failed {
		t.Error("machine not marked failed")
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job not completed after machine failure")
	}
	// New allocations avoided the failed machine.
	for _, s := range h.starts {
		if s.Attempt > 1 && h.cl.MachineOf(s.Executor) == failedMachine {
			t.Error("recovery task scheduled on failed machine")
		}
	}
}

// A machine crash is one event: every victim's recovery is decided before
// anything relaunches, so no task starts until every task the crash killed
// has been aborted. Here machine 0 runs two tasks of j1 and one of j0 and
// holds the only copy of j0/A[0]'s output, which j0/B still needs, while
// machines 1 and 2 are idle.
func TestMachineFailedAbortsBeforeRelaunching(t *testing.T) {
	h := newHarness(t, 3, 3, DefaultOptions())
	h.c.MachineUnhealthy(1)
	h.c.MachineUnhealthy(2) // everything below launches on machine 0
	h.submit(barrierJob("j0", 2, 1))
	h.finish(ref("j0", "A", 0))
	h.submit(pipelineJob("j1", 1, 1))
	h.c.MachineRecovered(1)
	h.c.MachineRecovered(2)
	h.drain()
	if len(h.running) != 3 {
		t.Fatalf("running %d tasks before the crash, want 3", len(h.running))
	}
	from := len(h.events)
	h.crash(0)
	firstStart, aborted := -1, map[string]int{}
	for k, a := range h.events[from:] {
		switch a.Kind {
		case ActStartTask:
			if firstStart < 0 {
				firstStart = k
			}
		case ActAbortTask:
			aborted[a.Task.Job]++
			if firstStart >= 0 {
				t.Errorf("abort of %s after a start: %+v", a.Task, h.events[from:])
			}
		}
	}
	if aborted["j0"] == 0 || aborted["j1"] == 0 {
		t.Errorf("aborts per job %v, want both jobs", aborted)
	}
	if _, ok := h.running[ref("j0", "A", 0)]; !ok {
		t.Error("the lost output of j0/A[0] was not regenerated")
	}
	h.finishAll()
	if !h.completed("j0") || !h.completed("j1") {
		t.Error("a job did not complete after the crash")
	}
}

// A Cache Worker loss is one event too: each orphaned output degrades its
// stage's out-edges before anything relaunches.
func TestCacheWorkerLostDegradesBeforeRelaunching(t *testing.T) {
	opts := DefaultOptions()
	opts.Shuffle = FixedShuffle(shuffle.Remote)
	h := newHarness(t, 1, 4, opts)
	for _, j := range []string{"j0", "j1"} {
		h.submit(barrierJob(j, 2, 1))
	}
	// A[1] of each job keeps running, so each B is gated and still needs
	// A[0]'s output; the two finishes leave two executors free.
	h.finish(ref("j0", "A", 0))
	h.finish(ref("j1", "A", 0))
	from := len(h.events)
	h.c.CacheWorkerLost(0)
	h.drain()
	degraded, started := 0, 0
	for _, a := range h.events[from:] {
		switch a.Kind {
		case ActShuffleDegraded:
			if started > 0 {
				t.Errorf("%s's edges degraded after a start", a.Task.Job)
			}
			degraded++
		case ActStartTask:
			started++
		}
	}
	if degraded != 2 || started != 2 {
		t.Errorf("%d edges degraded and %d tasks started, want 2 and 2: %+v", degraded, started, h.events[from:])
	}
}

func TestMachineFailureNoStepWhenConsumersDone(t *testing.T) {
	h := newHarness(t, 2, 4, DefaultOptions())
	h.submit(barrierJob("j", 1, 1))
	aExec := h.running[ref("j", "A", 0)].Executor
	machine := h.cl.MachineOf(aExec)
	h.finish(ref("j", "A", 0))
	h.finish(ref("j", "B", 0))
	if !h.completed("j") {
		t.Fatal("job should be done")
	}
	before := len(h.starts)
	h.crash(machine)
	if len(h.starts) != before {
		t.Error("machine failure after job completion triggered recovery")
	}
}

func TestUnhealthyMachineGoesReadOnly(t *testing.T) {
	// The job fills both machines, so each failed task relaunches on the
	// executor it just freed: machine 0's eight tasks fail once each, well
	// inside their own retry budgets.
	h := newHarness(t, 2, 8, DefaultOptions())
	h.submit(pipelineJob("j", 8, 8))
	for fails := 0; fails < unhealthyThreshold; fails++ {
		if h.cl.Machine(0).Health != cluster.Healthy {
			t.Fatalf("machine 0 drained after %d failures, threshold is %d", fails, unhealthyThreshold)
		}
		var target Action
		for _, a := range h.running {
			if h.cl.MachineOf(a.Executor) == 0 && (target.Attempt == 0 || a.Attempt < target.Attempt) {
				target = a
			}
		}
		if target.Attempt == 0 {
			t.Fatal("no running task on machine 0")
		}
		h.fail(target.Task, FailCrash)
	}
	if h.cl.Machine(0).Health != cluster.ReadOnly {
		t.Errorf("machine 0 health = %v, want read-only", h.cl.Machine(0).Health)
	}
	sawAction := false
	for _, a := range h.events {
		if a.Kind == ActMachineReadOnly && a.Detail.Machine == 0 {
			sawAction = true
		}
	}
	if !sawAction {
		t.Error("no ActMachineReadOnly emitted")
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job not completed")
	}
}

func TestExecutorRestartedRecoversItsTask(t *testing.T) {
	h := newHarness(t, 2, 2, DefaultOptions())
	h.submit(pipelineJob("j", 1, 1))
	a := h.running[ref("j", "A", 0)]
	h.restart(a.Executor)
	if got, ok := h.running[ref("j", "A", 0)]; !ok || got.Attempt != a.Attempt+1 {
		t.Fatalf("task not recovered after executor restart: %v", h.running)
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job not completed")
	}
}

func TestStaleEventsIgnored(t *testing.T) {
	h := newHarness(t, 2, 2, DefaultOptions())
	h.submit(pipelineJob("j", 1, 1))
	a := h.running[ref("j", "A", 0)]
	h.c.TaskFinished(ref("j", "A", 0), int(a.Attempt)+7) // bogus attempt
	h.c.TaskFailed(ref("j", "A", 0), int(a.Attempt)-1, FailCrash)
	h.c.TaskFinished(ref("j", "zzz", 0), 1)  // unknown stage
	h.c.TaskFinished(ref("nope", "A", 0), 1) // unknown job
	h.drain()
	if h.completed("j") || h.jobFailed("j") {
		t.Fatal("stale events changed job state")
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job not completed")
	}
	// Finishing an already-done task is ignored.
	h.c.TaskFinished(ref("j", "A", 0), int(a.Attempt))
	h.drain()
}

func TestSubmitValidation(t *testing.T) {
	h := newHarness(t, 1, 1, DefaultOptions())
	if err := h.c.SubmitJob(nil); err == nil {
		t.Error("nil job accepted")
	}
	h.submit(pipelineJob("dup", 1, 1))
	if err := h.c.SubmitJob(pipelineJob("dup", 1, 1)); err == nil {
		t.Error("duplicate job accepted")
	}
	if err := h.c.SubmitJob(dag.NewJob("empty")); err == nil {
		t.Error("empty job accepted")
	}
}

// edgeMode returns the shuffle mode of a live job's edge: the one selected
// at admission, or Direct once a Cache Worker crash degraded it. It is
// Direct for a job, stage or edge it does not know.
func (c *Controller) edgeMode(job, from, to string) shuffle.Mode {
	m := c.jobs[job]
	if m == nil {
		return shuffle.Direct
	}
	if fi, ti := m.job.TopoIndex(from), m.job.TopoIndex(to); fi >= 0 {
		for _, e := range m.stages[fi].out {
			if e.to == ti {
				return e.mode
			}
		}
	}
	return shuffle.Direct
}

func TestEdgeModeSelection(t *testing.T) {
	h := newHarness(t, 4, 4, DefaultOptions())
	h.submit(pipelineJob("j", 2, 2)) // edge size 4 -> Direct
	if got := h.c.edgeMode("j", "A", "B"); got != shuffle.Direct {
		t.Errorf("mode = %v, want Direct", got)
	}
	if got := h.c.edgeMode("nope", "A", "B"); got != shuffle.Direct {
		t.Errorf("unknown job mode = %v", got)
	}

	opts := DefaultOptions()
	opts.Shuffle = FixedShuffle(shuffle.Disk)
	h2 := newHarness(t, 4, 4, opts)
	h2.submit(pipelineJob("j", 2, 2))
	if got := h2.c.edgeMode("j", "A", "B"); got != shuffle.Disk {
		t.Errorf("disk policy mode = %v", got)
	}

	big := pipelineJob("big", 400, 400) // 160k edges -> Local under adaptive
	h3 := newHarness(t, 100, 60, DefaultOptions())
	h3.submit(big)
	if got := h3.c.edgeMode("big", "A", "B"); got != shuffle.Local {
		t.Errorf("adaptive large mode = %v, want Local", got)
	}

	// A fan-out stage whose edges got different modes: a Cache Worker
	// crash degrades its Local and Remote edges and leaves the others.
	opts = DefaultOptions()
	byConsumer := []shuffle.Mode{shuffle.Direct, shuffle.Local, shuffle.Remote, shuffle.Disk}
	opts.Shuffle = func(edgeSize int, _ int64, _ bool) shuffle.Mode { return byConsumer[edgeSize-1] }
	b := dag.NewBuilder("f").Stage("A", 1, dag.Op(dag.OpTableScan), dag.Op(dag.OpMergeSort), dag.Op(dag.OpShuffleWrite))
	consumers := []string{"B", "C", "D", "E"}
	for i, name := range consumers {
		b.Stage(name, i+1, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpAdhocSink)).Barrier("A", name, 1<<20)
	}
	h4 := newHarness(t, 1, 4, opts)
	h4.submit(b.MustBuild())
	for i, name := range consumers {
		if got := h4.c.edgeMode("f", "A", name); got != byConsumer[i] {
			t.Errorf("A->%s mode = %v, want %v", name, got, byConsumer[i])
		}
	}
	for _, e := range [][2]string{{"A", "nope"}, {"nope", "B"}, {"B", "C"}} {
		if got := h4.c.edgeMode("f", e[0], e[1]); got != shuffle.Direct {
			t.Errorf("%s->%s of a live job: mode = %v, want Direct", e[0], e[1], got)
		}
	}
	h4.finish(ref("f", "A", 0))
	from := len(h4.events)
	h4.c.CacheWorkerLost(0)
	h4.drain()
	var degraded []string
	for _, a := range h4.events[from:] {
		if a.Kind == ActShuffleDegraded {
			degraded = append(degraded, a.Detail.From+"->"+a.Detail.To+" "+a.Detail.Old.String())
		}
	}
	if want := []string{"A->C " + shuffle.Local.String(), "A->D " + shuffle.Remote.String()}; !slices.Equal(degraded, want) {
		t.Errorf("degraded %q, want %q", degraded, want)
	}
	for i, name := range consumers {
		want := byConsumer[i]
		if want == shuffle.Local || want == shuffle.Remote {
			want = shuffle.Direct
		}
		if got := h4.c.edgeMode("f", "A", name); got != want {
			t.Errorf("after the crash A->%s mode = %v, want %v", name, got, want)
		}
	}
}

func TestPerStagePartitionSchedulesStagewise(t *testing.T) {
	opts := DefaultOptions()
	opts.Partition = PerStagePartition
	h := newHarness(t, 4, 4, opts)
	h.submit(pipelineJob("j", 2, 2)) // pipeline edge, but per-stage gating
	if len(h.running) != 2 {
		t.Fatalf("per-stage: running = %d, want 2 (A only)", len(h.running))
	}
	h.finish(ref("j", "A", 0))
	h.finish(ref("j", "A", 1))
	if len(h.running) != 2 {
		t.Fatalf("B not launched after A: %v", h.running)
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job not completed")
	}
}

func TestGraphletAccessors(t *testing.T) {
	h := newHarness(t, 4, 4, DefaultOptions())
	h.submit(barrierJob("j", 1, 1))
	graphlets := make(map[int]bool)
	for _, ts := range h.c.Tasks("j") {
		graphlets[ts.Graphlet] = true
	}
	if len(graphlets) != 2 {
		t.Fatalf("graphlets = %d", len(graphlets))
	}
	if h.c.Tasks("nope") != nil {
		t.Error("Tasks of unknown job")
	}
	if _, _, ok := h.c.RunningTask(ref("j", "A", 0)); !ok {
		t.Error("RunningTask should find A[0]")
	}
	if _, _, ok := h.c.RunningTask(ref("j", "B", 0)); ok {
		t.Error("RunningTask found un-started B[0]")
	}
	// Tasks lists stages in topological order, whatever order the job
	// declared them in.
	h.submit(dag.NewBuilder("c").Stage("B", 1).Stage("A", 2).Pipeline("A", "B", 1<<20).MustBuild())
	var got []TaskRef
	for _, ts := range h.c.Tasks("c") {
		got = append(got, ts.Ref)
	}
	if want := []TaskRef{ref("c", "A", 0), ref("c", "A", 1), ref("c", "B", 0)}; !slices.Equal(got, want) {
		t.Errorf("Tasks(c) = %v, want %v", got, want)
	}
}

// TestTaskRecordSize holds the per-task record to the 32 bytes its field
// order packs into on a 64-bit platform, and an action to its 72: every
// event's actions are copied by value (flow.Service copies each batch out
// of the controller's buffer), so a wider Action slows the daemon.
func TestTaskRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are for 64-bit platforms")
	}
	if n := unsafe.Sizeof(taskState{}); n != 32 {
		t.Errorf("taskState is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(Action{}); n != 72 {
		t.Errorf("Action is %d bytes, want 72", n)
	}
}
