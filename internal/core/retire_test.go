package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"swift/internal/cluster"
	"swift/internal/raceflag"
)

// retired asserts that a job left the live table at its terminal action,
// keeping its outcome only, and that the controller is still consistent.
func (h *harness) retired(job string) {
	h.t.Helper()
	if m := h.c.jobs[job]; m != nil {
		h.t.Errorf("%s: a retired job keeps its monitor in the live table", job)
	}
	if v := h.c.CheckInvariants(); len(v) != 0 {
		h.t.Errorf("invariants: %v", v)
	}
}

// TestRetiredJobKeepsItsOutcome retires one job each way — completion, a
// failure past its retries, a client cancel — and checks that only the
// outcome stays, and that it answers everything that asks after the job.
func TestRetiredJobKeepsItsOutcome(t *testing.T) {
	h := newHarness(t, 2, 2, DefaultOptions())
	h.submit(barrierJob("done", 2, 1))
	h.finishAll()
	h.submit(pipelineJob("failed", 1, 1))
	if err := h.c.SubmitJob(pipelineJob("failed", 1, 1)); err == nil {
		t.Fatal("a live job's id was accepted again")
	}
	for range maxTaskRetries + 1 {
		h.fail(ref("failed", "A", 0), FailCrash)
	}
	if !h.jobFailed("failed") {
		t.Fatal("job not failed after exhausting its retries")
	}
	h.submit(barrierJob("cancelled", 2, 1))
	if err := h.c.CancelJob("cancelled", "test"); err != nil {
		t.Fatal(err)
	}
	h.drain()

	for _, tc := range []struct {
		job          string
		done, failed bool
	}{{"done", true, false}, {"failed", false, true}, {"cancelled", false, true}} {
		h.retired(tc.job)
		if err := h.c.SubmitJob(barrierJob(tc.job, 1, 1)); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("%s: resubmitting a retired id: %v, want a duplicate-id error", tc.job, err)
		}
		if h.c.JobDone(tc.job) != tc.done || h.c.JobFailed(tc.job) != tc.failed {
			t.Errorf("%s: JobDone %v, JobFailed %v, want %v, %v", tc.job, h.c.JobDone(tc.job), h.c.JobFailed(tc.job), tc.done, tc.failed)
		}
		if err := h.c.CancelJob(tc.job, "again"); err == nil || !strings.Contains(err.Error(), "already terminal") {
			t.Errorf("%s: cancelling a retired job: %v, want \"already terminal\"", tc.job, err)
		}
	}
	if err := h.c.CancelJob("never", "test"); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Errorf("cancelling an unknown job: %v", err)
	}
	if h.c.JobDone("never") || h.c.JobFailed("never") {
		t.Error("an unknown job answers as retired")
	}
	if h.c.Snapshot().LiveJobs != 0 || len(h.c.LiveJobs()) != 0 {
		t.Errorf("live jobs after every job retired: %d, %v", h.c.Snapshot().LiveJobs, h.c.LiveJobs())
	}
}

// TestStageCompleteAfterCompletion: the simulator asks whether a stage is
// complete right after the finish that completed the job. The job's handle
// names no job any more, so the controller answers false for every stage
// and the driver reads the outcome from its terminal action; handle 0 and
// a handle never issued name no job either.
func TestStageCompleteAfterCompletion(t *testing.T) {
	h := newHarness(t, 2, 2, DefaultOptions())
	h.submit(barrierJob("j", 3, 2))
	j := h.c.Handle("j")
	if j == 0 {
		t.Fatal("live job has handle 0")
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job not completed")
	}
	h.retired("j")
	if h.c.Handle("j") != 0 {
		t.Error("a retired job still has a handle")
	}
	for stage := range 2 {
		if h.c.StageComplete(j, stage) {
			t.Errorf("stage %d of a retired handle is complete", stage)
		}
	}
	if h.c.StageComplete(0, 0) || h.c.StageComplete(j+1, 0) || h.c.StageComplete(-1, 0) {
		t.Error("a stage of a handle naming no job is complete")
	}
}

// TestMachineFailureRetiresJobMidStorm crashes a machine running two tasks
// of one job whose first task is on its last retry: the first victim's
// recovery fails and retires the job, and the second victim's recovery
// must find the job gone, not dereference it.
func TestMachineFailureRetiresJobMidStorm(t *testing.T) {
	h := newHarness(t, 1, 2, DefaultOptions())
	h.submit(barrierJob("j", 2, 1))
	for range maxTaskRetries {
		h.fail(ref("j", "A", 0), FailCrash)
	}
	if len(h.running) != 2 || h.jobFailed("j") {
		t.Fatalf("want both A tasks running on the one machine, job live: running %v", h.running)
	}
	h.crash(0)
	if !h.jobFailed("j") || !h.c.JobFailed("j") {
		t.Fatal("the crash did not fail the job on its exhausted retries")
	}
	h.retired("j")
}

// TestRetiredJobResidue holds what a retired job leaves behind in the
// controller: its id and outcome. 20,000 short two-stage jobs run through
// one controller after a warm-up, and the live heap may grow by at most
// 160 B per job. Measured on linux/amd64 with go1.24: 2,657 B a job while
// monitors were never deleted, 55–57 B with the outcome table (the map
// slot plus the id's bytes).
func TestRetiredJobResidue(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const warm, jobs, budget = 1000, 20000, 160
	c := NewController(cluster.New(cluster.Config{Machines: 1, ExecutorsPerMachine: 4}), DefaultOptions())
	var starts []Action
	collect := func() {
		for _, a := range c.Drain() {
			if a.Kind == ActStartTask {
				starts = append(starts, a)
			}
		}
	}
	run := func(from, to int) {
		for i := from; i < to; i++ {
			id := fmt.Sprintf("r%d", i)
			if err := c.SubmitJob(barrierJob(id, 2, 1)); err != nil {
				t.Fatal(err)
			}
			collect()
			for len(starts) > 0 {
				a := starts[len(starts)-1]
				starts = starts[:len(starts)-1]
				c.TaskFinished(a.Task, int(a.Attempt))
				collect()
			}
			if !c.JobDone(id) {
				t.Fatalf("%s did not complete", id)
			}
		}
	}
	run(0, warm)
	before := liveHeap()
	run(warm, warm+jobs)
	after := liveHeap()
	runtime.KeepAlive(c)
	per := (float64(after) - float64(before)) / jobs
	t.Logf("live heap grew %.0f B per retired job", per)
	if per > budget {
		t.Errorf("live heap grew %.0f B per retired job, budget %d B", per, budget)
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
