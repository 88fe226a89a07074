package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/flow"
	"swift/internal/shuffle"
	"swift/internal/sim"
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

// dueTask is a running task as the driver would complete it.
type dueTask struct {
	at sim.Time
	c  flow.Completion
}

// popRunning takes every running task off the daemon's deadline heap, in
// deadline order.
func (d *daemon) popRunning() []dueTask {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []dueTask
	var c [1]flow.Completion
	for at, ok := d.due.Next(); ok; at, ok = d.due.Next() {
		d.due.PopDue(at, c[:])
		out = append(out, dueTask{at, c[0]})
	}
	return out
}

// checkWalls fails unless every task started in [from, to] and falls due
// its stage's price later: wantSecs[stage] virtual seconds at the
// daemon's -timescale.
func checkWalls(t *testing.T, d *daemon, tasks []dueTask, from, to sim.Time, wantSecs []float64) {
	t.Helper()
	for _, task := range tasks {
		w := max(sim.FromSeconds(wantSecs[task.c.Stage]/d.timescale), 200*sim.Microsecond)
		if task.at < from+w || task.at > to+w {
			t.Fatalf("task %+v falls due %v after its start, want %v (its stage's price)",
				task.c, task.at-to, w)
		}
	}
}

// A refused duplicate id must not touch the running job's prices: the
// tasks the running job starts after the refusal still cost what it was
// submitted with, not the newcomer's stages.
func TestDuplicateSubmitKeepsRunningJobsCosts(t *testing.T) {
	d := testDaemon(flow.Config{}, 1) // no driver: nothing finishes unless the test says so
	m := cluster.DefaultModel()
	price := []float64{m.SwiftPlanDelivery + m.TaskDispatch + 7}
	from := d.now()
	// Ten tasks on eight executors: two wait for the first completions.
	if rep, err := d.FlowSubmit("dup", oneStage(t, "dup", 10, 7)); err != nil || rep.Decision != "admitted" {
		t.Fatalf("first submit = %+v, %v", rep, err)
	}
	running := d.popRunning()
	if len(running) != 8 {
		t.Fatalf("%d tasks running, want 8", len(running))
	}
	checkWalls(t, d, running, from, d.now(), price)
	rep, err := d.FlowSubmit("dup", oneStage(t, "dup", 10, 1))
	if err != nil || rep.Decision != "" || !strings.Contains(rep.Reason, "duplicate") {
		t.Fatalf("duplicate submit = %+v, %v; want a rejection naming the duplicate", rep, err)
	}
	from = d.now()
	d.svc.TasksFinished([]flow.Completion{running[0].c, running[1].c})
	started := d.popRunning()
	if len(started) != 2 {
		t.Fatalf("%d tasks started by two completions, want 2", len(started))
	}
	checkWalls(t, d, started, from, d.now(), price)
	if st := d.svc.Status(); st.Snapshot.LiveJobs != 1 || st.Flow.Admitted != 1 {
		t.Fatalf("%d live and %d admitted jobs, want the running one", st.Snapshot.LiveJobs, st.Flow.Admitted)
	}
	if v := d.svc.Invariants(); len(v) != 0 {
		t.Fatalf("invariants violated: %v", v)
	}
}

// Every task runs for its stage's full price — launch, scan, shuffle read,
// process and shuffle write under the edge mode core chose — not its
// process term alone. The job's edge has 101 × 100 tasks, past the
// 10,000-edge Direct threshold, and its producers scan a table.
func TestTaskRunsForItsPrice(t *testing.T) {
	const machines, execs = 20, 12 // room for both stages at once
	cl := cluster.New(cluster.Config{Machines: machines, ExecutorsPerMachine: execs})
	d := newDaemon(cl, core.DefaultOptions(), flow.Config{}, 1, false)
	job, err := dag.NewBuilder("priced").
		StageOpt(&dag.Stage{Name: "scan", Tasks: 101, Idempotent: true,
			Cost: dag.Cost{ScanBytes: 64 << 30, ProcessSecondsPerTask: 2}}).
		StageOpt(&dag.Stage{Name: "agg", Tasks: 100, Idempotent: true,
			Cost: dag.Cost{ProcessSecondsPerTask: 3}}).
		Pipeline("scan", "agg", 32<<30).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	payload := encode(t, trace.Job{Job: job})

	// The oracle: the same job admitted by a bare controller on the same
	// cluster, priced by the shared function.
	ref, _ := trace.Read(bytes.NewReader(payload))
	refCl := cluster.New(cluster.Config{Machines: machines, ExecutorsPerMachine: execs})
	ctrl := core.NewController(refCl, core.DefaultOptions())
	if err := ctrl.SubmitJob(ref.Jobs[0].Job); err != nil {
		t.Fatal(err)
	}
	if mode := ctrl.EdgeMode("priced", "scan", "agg"); mode == shuffle.Direct {
		t.Fatalf("the edge is %v: the test needs a Cache-Worker mode", mode)
	}
	var want []float64
	for _, c := range shuffle.Price(ref.Jobs[0].Job, ctrl.EdgeMode, refCl, 0) {
		if c.Scan+c.Read+c.Write == 0 {
			t.Fatalf("stage priced %+v: the test needs a scan or a shuffle term", c)
		}
		want = append(want, c.Total())
	}

	from := d.now()
	if rep, err := d.FlowSubmit("priced", payload); err != nil || rep.Decision != "admitted" {
		t.Fatalf("submit = %+v, %v", rep, err)
	}
	running := d.popRunning()
	if len(running) != 201 {
		t.Fatalf("%d tasks running, want all 201", len(running))
	}
	checkWalls(t, d, running, from, d.now(), want)
}

// A -timescale that is not a finite positive number exits 1 before the
// daemon listens.
func TestBadTimescaleExitsOne(t *testing.T) {
	for _, ts := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		addrFile := filepath.Join(t.TempDir(), "addr")
		if code := run("127.0.0.1:0", addrFile, 4, 2, ts, 0, 8, 0, 0, "", "fifo", time.Second, false); code != 1 {
			t.Fatalf("-timescale %v: exit %d, want 1", ts, code)
		}
		if _, err := os.Stat(addrFile); !os.IsNotExist(err) {
			t.Fatalf("-timescale %v: the daemon listened (addrfile: %v)", ts, err)
		}
	}
}

// A frame whose id is not its payload's job id is refused before anything
// is admitted: the job would run under an id its sender never used, out of
// reach of that sender's flow.cancel.
func TestSubmitFrameIDMustBeTheJobID(t *testing.T) {
	d := testDaemon(flow.Config{}, 1) // no driver: an admitted job stays live
	payload := oneStage(t, "real", 2, 1)
	rep, err := d.FlowSubmit("alias", payload)
	if err != nil || rep.Decision != "" || !strings.Contains(rep.Reason, `"alias"`) || !strings.Contains(rep.Reason, `"real"`) {
		t.Fatalf("mismatched submit = %+v, %v; want a rejection naming both ids", rep, err)
	}
	if st := d.svc.Status(); st.Flow.Decisions != 0 || st.Snapshot.LiveJobs != 0 {
		t.Fatalf("%d admission decisions and %d live jobs after a rejected submission, want none", st.Flow.Decisions, st.Snapshot.LiveJobs)
	}
	if rep, err := d.FlowSubmit("real", payload); err != nil || rep.Decision != "admitted" {
		t.Fatalf("the same payload under its own id = %+v, %v", rep, err)
	}
	if rep, err := d.FlowCancel("real"); err != nil || !rep.Cancelled {
		t.Fatalf("cancel by the submitted id = %+v, %v", rep, err)
	}
}

// The price table holds the live jobs and nothing else: shed, cancelled
// and finished submissions leave no entry behind (flow.Service.Invariants
// checks that as many jobs are priced as are live).
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
	if st, v := d.svc.Status(), d.svc.Invariants(); st.Snapshot.LiveJobs != 1 || len(v) != 0 {
		t.Fatalf("%d live jobs after a cancel, want the first; invariants: %v", st.Snapshot.LiveJobs, v)
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
	if st, v := d.svc.Status(), d.svc.Invariants(); st.Snapshot.LiveJobs != 0 || len(v) != 0 {
		t.Fatalf("%d live jobs in a drained daemon; invariants: %v", st.Snapshot.LiveJobs, v)
	}
}
