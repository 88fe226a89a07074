package main

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/flow"
	"swift/internal/trace"
)

func testDaemon(fcfg flow.Config, timescale float64) *daemon {
	cl := cluster.New(cluster.Config{Machines: 4, ExecutorsPerMachine: 2})
	return newDaemon(cl, core.DefaultOptions(), fcfg, timescale, false)
}

// oneStage is a submission payload: a single-stage job whose tasks cost
// secs virtual seconds each.
func oneStage(t *testing.T, id string, tasks int, secs float64) []byte {
	t.Helper()
	j := dag.NewJob(id)
	if err := j.AddStage(&dag.Stage{Name: "s", Tasks: tasks, Idempotent: true,
		Cost: dag.Cost{ProcessSecondsPerTask: secs}}); err != nil {
		t.Fatal(err)
	}
	return encode(t, trace.Job{Job: j})
}

func encode(t *testing.T, j trace.Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (&trace.Trace{Jobs: []trace.Job{j}}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func (d *daemon) tracked() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.jobs)
}

// A rejected duplicate id must not touch the running job's stage costs:
// its remaining tasks would silently run at the newcomer's (or the
// default) cost.
func TestDuplicateSubmitKeepsRunningJobsCosts(t *testing.T) {
	d := testDaemon(flow.Config{}, 1) // no driver: nothing ever finishes
	if rep, err := d.FlowSubmit("dup", oneStage(t, "dup", 2, 7)); err != nil || rep.Decision != "admitted" {
		t.Fatalf("first submit = %+v, %v", rep, err)
	}
	rep, err := d.FlowSubmit("dup", oneStage(t, "dup", 2, 1))
	if err != nil || rep.Decision != "" || !strings.Contains(rep.Reason, "duplicate") {
		t.Fatalf("duplicate submit = %+v, %v; want a rejection naming the duplicate", rep, err)
	}
	d.mu.Lock()
	wall := d.taskWall(core.TaskRef{Job: "dup", Stage: "s"})
	d.mu.Unlock()
	if wall.Seconds() != 7 {
		t.Fatalf("the running job's tasks now cost %vs, want the 7s it was submitted with", wall.Seconds())
	}
	if n := d.tracked(); n != 1 {
		t.Fatalf("%d jobs tracked, want the running one", n)
	}
}

// A frame whose id is not its payload's job id is refused before anything
// is tracked: the job would run under an id its sender never used, out of
// reach of that sender's flow.cancel.
func TestSubmitFrameIDMustBeTheJobID(t *testing.T) {
	d := testDaemon(flow.Config{}, 1) // no driver: an admitted job stays live
	payload := oneStage(t, "real", 2, 1)
	rep, err := d.FlowSubmit("alias", payload)
	if err != nil || rep.Decision != "" || !strings.Contains(rep.Reason, `"alias"`) || !strings.Contains(rep.Reason, `"real"`) {
		t.Fatalf("mismatched submit = %+v, %v; want a rejection naming both ids", rep, err)
	}
	if n := d.tracked(); n != 0 {
		t.Fatalf("%d jobs tracked after a rejected submission, want none", n)
	}
	if rep, err := d.FlowSubmit("real", payload); err != nil || rep.Decision != "admitted" {
		t.Fatalf("the same payload under its own id = %+v, %v", rep, err)
	}
	if rep, err := d.FlowCancel("real"); err != nil || !rep.Cancelled {
		t.Fatalf("cancel by the submitted id = %+v, %v", rep, err)
	}
}

// The cost table holds what is queued or live and nothing else: shed,
// invalid, cancelled and finished submissions all leave it, so an
// always-on daemon's table does not grow with its history.
func TestCostTableEmptiesWithTheDaemon(t *testing.T) {
	d := testDaemon(flow.Config{MaxInFlightTasks: 8, MaxQueue: 16}, 1e6)

	// Before the driver runs: one job fills the budget, one queues and is
	// cancelled.
	if rep, _ := d.FlowSubmit("live", oneStage(t, "live", 8, 1)); rep.Decision != "admitted" {
		t.Fatalf("live = %+v", rep)
	}
	if rep, _ := d.FlowSubmit("parked", oneStage(t, "parked", 8, 1)); rep.Decision != "queued" {
		t.Fatalf("parked = %+v", rep)
	}
	if rep, err := d.FlowCancel("parked"); err != nil || !rep.Cancelled {
		t.Fatalf("cancel parked = %+v, %v", rep, err)
	}
	if n := d.tracked(); n != 1 {
		t.Fatalf("%d jobs tracked after a cancel, want the live one", n)
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		d.drive(stop)
	}()
	var shed int
	goroutines := runtime.NumGoroutine() // this one, the driver, the runtime's
	for _, j := range trace.Generate(trace.Spec{Jobs: 200, Seed: 1, RuntimeCap: 120}).Jobs {
		rep, err := d.FlowSubmit(j.Job.ID, encode(t, j))
		if err != nil {
			t.Fatalf("submit %s: %v", j.Job.ID, err)
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Fatalf("%d goroutines mid-burst, %d before it: running tasks must not cost goroutines", n, goroutines)
		}
		if rep.Decision == "shed" {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("nothing was shed: the burst does not cover the rejection path")
	}
	d.svc.Drain()
	select {
	case <-d.svc.Drained():
	case <-time.After(30 * time.Second):
		t.Fatal("the daemon never drained")
	}
	close(stop)
	<-done
	// Rejections outside the admission ladder: the id of a finished job,
	// and a newcomer to a draining daemon.
	if rep, _ := d.FlowSubmit("live", oneStage(t, "live", 1, 1)); rep.Decision != "" || !strings.Contains(rep.Reason, "duplicate") {
		t.Fatalf("reuse of a finished job's id = %+v, want a duplicate rejection", rep)
	}
	if rep, _ := d.FlowSubmit("late", oneStage(t, "late", 1, 1)); rep.Decision != "shed" {
		t.Fatalf("submit to a drained daemon = %+v, want shed", rep)
	}
	if n := d.tracked(); n != 0 {
		t.Fatalf("%d jobs still tracked by a drained daemon", n)
	}
	if v := d.svc.Invariants(); len(v) != 0 {
		t.Fatalf("invariants violated: %v", v)
	}
}
