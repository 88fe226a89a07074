package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"swift/internal/cluster"
	"swift/internal/dag"
	"swift/internal/trace"
)

// TestFinishTaskMatchesTaskFinished runs one job and completion sequence
// through two controllers: one names every completion by its TaskRef, the
// other by the start action's handle, stage index and task index. Crashes
// of tasks and of a machine along the way add aborts, retries and
// cascades. The two action streams must be equal.
func TestFinishTaskMatchesTaskFinished(t *testing.T) {
	jobs := trace.Generate(trace.Spec{Jobs: 40, Seed: 3, RuntimeCap: 60}).Jobs
	run := func(byHandle bool) []Action {
		c := NewController(cluster.New(cluster.Config{Machines: 20, ExecutorsPerMachine: 10}), DefaultOptions())
		var stream, starts []Action
		collect := func() {
			for _, a := range c.Drain() {
				stream = append(stream, a)
				if a.Kind == ActStartTask {
					starts = append(starts, a)
				}
			}
		}
		for _, j := range jobs {
			if err := c.SubmitJob(j.Job); err != nil {
				t.Fatal(err)
			}
			collect()
		}
		for n := 0; len(starts) > 0; n++ {
			a := starts[0]
			starts = starts[1:]
			if n == 400 {
				c.MachineFailed(cluster.MachineID(2))
				collect()
			}
			switch {
			case n%37 == 5:
				c.TaskFailed(a.Task, int(a.Attempt), FailCrash)
			case byHandle:
				c.FinishTask(a.Job, int(a.Stage), a.Task.Index, int(a.Attempt))
			default:
				c.TaskFinished(a.Task, int(a.Attempt))
			}
			collect()
		}
		if v := c.CheckInvariants(); len(v) > 0 || c.Snapshot().LiveJobs > 0 {
			t.Fatalf("%d jobs left live, invariants: %v", c.Snapshot().LiveJobs, v)
		}
		return stream
	}
	byRef, byHandle := run(false), run(true)
	if len(byRef) == 0 || !reflect.DeepEqual(byRef, byHandle) {
		t.Fatalf("action streams differ: %d actions by TaskRef, %d by handle", len(byRef), len(byHandle))
	}
	var aborts, done, failed int
	for _, a := range byRef {
		switch a.Kind {
		case ActAbortTask:
			aborts++
		case ActJobCompleted:
			done++
		case ActJobFailed:
			failed++
		}
	}
	t.Logf("%d actions, %d aborts, %d completed jobs, %d failed", len(byRef), aborts, done, failed)
	if aborts == 0 || done == 0 {
		t.Errorf("the run exercised %d aborts and %d completed jobs; want both", aborts, done)
	}
}

// TestFinishTaskOnNoJobIsNoOp: a completion on a retired handle or on
// handle 0 names no job, so it changes nothing and emits nothing, even
// with another job waiting for executors.
func TestFinishTaskOnNoJobIsNoOp(t *testing.T) {
	h := newHarness(t, 1, 1, DefaultOptions())
	h.submit(barrierJob("a", 1, 1))
	a := h.c.Handle("a")
	h.finishAll()
	if !h.completed("a") {
		t.Fatal("a did not complete")
	}
	h.submit(barrierJob("b", 2, 1)) // one task runs, one waits
	before := h.c.Snapshot()
	for _, job := range []JobHandle{a, 0} {
		h.c.FinishTask(job, 0, 0, 1)
		if acts := h.c.Drain(); len(acts) != 0 {
			t.Errorf("FinishTask on handle %d emitted %v", job, acts)
		}
	}
	if after := h.c.Snapshot(); after != before {
		t.Errorf("snapshot moved from %+v to %+v", before, after)
	}
}

// TestHandlesAreNeverReused: across submit/retire cycles every job gets a
// fresh non-zero handle, and every action naming the job carries it.
func TestHandlesAreNeverReused(t *testing.T) {
	h := newHarness(t, 2, 2, DefaultOptions())
	seen := map[JobHandle]string{0: "(never issued)"}
	for i := range 3 {
		id := fmt.Sprintf("j%d", i)
		h.submit(barrierJob(id, 2, 2))
		job := h.c.Handle(id)
		if other, ok := seen[job]; ok {
			t.Fatalf("%s got handle %d, already %s's", id, job, other)
		}
		seen[job] = id
		h.finishAll()
		if !h.completed(id) || h.c.Handle(id) != 0 {
			t.Fatalf("%s: completed %v, handle after retire %d", id, h.completed(id), h.c.Handle(id))
		}
	}
	for _, a := range h.events {
		if a.Task.Job != "" && seen[a.Job] != a.Task.Job {
			t.Errorf("%v action for %s carries handle %d", a.Kind, a.Task.Job, a.Job)
		}
	}
}

// TestSubmitJobRefusesUnnamableGraphlets: Action.Graphlet is an int16, so
// a job of more graphlets than it can name is refused before it takes a
// handle or any controller state.
func TestSubmitJobRefusesUnnamableGraphlets(t *testing.T) {
	b := dag.NewBuilder("wide")
	for s := range math.MaxInt16 + 1 {
		b.Stage(fmt.Sprintf("S%d", s), 1, dag.Op(dag.OpTableScan), dag.Op(dag.OpAdhocSink))
	}
	job := b.MustBuild()
	c := NewController(cluster.New(cluster.Config{Machines: 1, ExecutorsPerMachine: 1}), DefaultOptions())
	err := c.SubmitJob(job)
	if err == nil || !strings.Contains(err.Error(), "32768 graphlets") {
		t.Fatalf("SubmitJob of %d one-stage graphlets: %v, want a refusal naming the count", math.MaxInt16+1, err)
	}
	if c.Handle("wide") != 0 || c.Snapshot().LiveJobs != 0 || len(c.Drain()) != 0 {
		t.Error("the refused job left state or actions behind")
	}
}
