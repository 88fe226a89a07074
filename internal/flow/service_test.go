package flow

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/graphlet"
	"swift/internal/sim"
)

// testClock is a monotonic fake: every read advances 1ms.
type testClock struct{ ticks int64 }

func (c *testClock) now() sim.Time { return sim.Time(atomic.AddInt64(&c.ticks, 1)) * sim.Millisecond }

func testJob(id string, stages, tasks int) *dag.Job {
	j := dag.NewJob(id)
	prev := ""
	for s := 0; s < stages; s++ {
		name := fmt.Sprintf("s%d", s)
		if err := j.AddStage(&dag.Stage{Name: name, Tasks: tasks, Idempotent: true}); err != nil {
			panic(err)
		}
		if prev != "" {
			if err := j.AddEdge(&dag.Edge{From: prev, To: name, Mode: dag.Barrier}); err != nil {
				panic(err)
			}
		}
		prev = name
	}
	return j
}

// driver completes every started task straight away and records each
// observed action exactly as delivered by the sink.
type driver struct {
	svc *Service

	mu      sync.Mutex
	starts  map[string]int // "job/stage[i]#attempt" -> times seen
	actions int64
	jobsRun map[string]bool // jobs with at least one started task
}

func newDriver() *driver {
	return &driver{starts: make(map[string]int), jobsRun: make(map[string]bool)}
}

func (d *driver) sink(_ sim.Time, acts []core.Action, _ []float64) {
	var finish []core.Action
	d.mu.Lock()
	for _, a := range acts {
		d.actions++
		if a.Kind == core.ActStartTask {
			key := fmt.Sprintf("%s/%s[%d]#%d", a.Task.Job, a.Task.Stage, a.Task.Index, a.Attempt)
			d.starts[key]++
			d.jobsRun[a.Task.Job] = true
			finish = append(finish, a)
		}
	}
	d.mu.Unlock()
	for _, st := range finish {
		d.svc.TaskFinished(st.Task, int(st.Attempt))
	}
}

func newTestService(fcfg Config, clock func() sim.Time) (*Service, *driver) {
	cl := cluster.New(cluster.Config{Machines: 4, ExecutorsPerMachine: 2})
	d := newDriver()
	svc := NewService(cl, core.DefaultOptions(), fcfg, clock, d.sink)
	d.svc = svc
	return svc, d
}

// Happy path: submit, run to completion via the sink, drain.
func TestServiceLifecycle(t *testing.T) {
	clk := &testClock{}
	svc, _ := newTestService(Config{MaxInFlightTasks: 100, MaxQueue: 4}, clk.now)
	out, err := svc.Submit(testJob("j1", 2, 3))
	if err != nil || out.Decision != Admitted {
		t.Fatalf("submit = %+v, %v", out, err)
	}
	if !svc.JobDone("j1") {
		t.Fatal("job not completed by the driver loop")
	}
	if v := svc.Invariants(); len(v) != 0 {
		t.Fatalf("invariants violated: %v", v)
	}
	svc.Drain()
	select {
	case <-svc.Drained():
	case <-time.After(time.Second):
		t.Fatal("drained channel never closed on an idle service")
	}
	if _, err := svc.Submit(testJob("late", 1, 1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit error = %v, want ErrDraining", err)
	}
}

// Queued jobs admit once capacity frees, and a drain waits for them.
func TestServiceQueueDrain(t *testing.T) {
	clk := &testClock{}
	// Budget of 4 tasks against 3-task jobs: one runs, others queue.
	svc, d := newTestService(Config{MaxInFlightTasks: 4, MaxQueue: 8}, clk.now)
	decisions := make(map[Decision]int)
	for i := 0; i < 5; i++ {
		out, err := svc.Submit(testJob(fmt.Sprintf("q%d", i), 1, 3))
		if err != nil {
			t.Fatalf("submit q%d: %v", i, err)
		}
		decisions[out.Decision]++
	}
	svc.Drain()
	select {
	case <-svc.Drained():
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed with queued work")
	}
	for i := 0; i < 5; i++ {
		if !svc.JobDone(fmt.Sprintf("q%d", i)) {
			t.Fatalf("job q%d lost (decisions: %v)", i, decisions)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for key, n := range d.starts {
		if n != 1 {
			t.Fatalf("start %s delivered %d times", key, n)
		}
	}
}

// A panicking submission is isolated: the submitter gets an error, the
// service keeps serving later submissions.
func TestServicePanicIsolation(t *testing.T) {
	clk := &testClock{}
	cl := cluster.New(cluster.Config{Machines: 2, ExecutorsPerMachine: 2})
	opts := core.DefaultOptions()
	opts.Partition = func(j *dag.Job) ([]*graphlet.Graphlet, error) {
		if strings.HasPrefix(j.ID, "poison") {
			panic("partitioner bug")
		}
		return core.GraphletPartition(j)
	}
	d := newDriver()
	svc := NewService(cl, opts, Config{MaxInFlightTasks: 100, MaxQueue: 4}, clk.now, d.sink)
	d.svc = svc

	_, err := svc.Submit(testJob("poison-1", 1, 1))
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("poisoned submit error = %v", err)
	}
	out, err := svc.Submit(testJob("fine", 1, 1))
	if err != nil || out.Decision != Admitted {
		t.Fatalf("service dead after panic: %+v, %v", out, err)
	}
	if !svc.JobDone("fine") {
		t.Fatal("job after panic not completed")
	}
	if st := svc.Status(); st.Panics != 1 {
		t.Fatalf("panic counter = %d, want 1", st.Panics)
	}
}

// Concurrent submitters (race detector): admission is linearizable — every
// submission gets exactly one outcome, no start action is ever delivered
// twice, and no admitted job is lost.
func TestServiceConcurrentSubmitters(t *testing.T) {
	clk := &testClock{}
	svc, d := newTestService(Config{MaxInFlightTasks: 12, MaxQueue: 16}, clk.now)
	const workers, perWorker = 8, 6
	var wg sync.WaitGroup
	outcomes := make([]map[string]Decision, workers)
	for w := 0; w < workers; w++ {
		w := w
		outcomes[w] = make(map[string]Decision)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%d-j%d", w, i)
				out, err := svc.Submit(testJob(id, 2, 2))
				if err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("submit %s: %v", id, err)
					return
				}
				outcomes[w][id] = out.Decision
			}
		}()
	}
	wg.Wait()
	svc.Drain()
	select {
	case <-svc.Drained():
	case <-time.After(10 * time.Second):
		t.Fatal("drain never completed after concurrent submissions")
	}

	shed, admitted := 0, 0
	for w := range outcomes {
		for id, dec := range outcomes[w] {
			switch dec {
			case Shed:
				shed++
				if svc.JobDone(id) || svc.JobFailed(id) {
					t.Fatalf("shed job %s reached the scheduler", id)
				}
			case Admitted, Queued:
				admitted++
				if !svc.JobDone(id) {
					t.Fatalf("accepted job %s was lost (decision %v)", id, dec)
				}
			}
		}
	}
	if admitted == 0 {
		t.Fatal("no submissions admitted")
	}
	if admitted+shed != workers*perWorker {
		t.Fatalf("outcomes: %d admitted + %d shed != %d submitted", admitted, shed, workers*perWorker)
	}
	d.mu.Lock()
	for key, n := range d.starts {
		if n != 1 {
			t.Fatalf("action for %s observed %d times, want exactly once", key, n)
		}
	}
	d.mu.Unlock()
	if v := svc.Invariants(); len(v) != 0 {
		t.Fatalf("invariants violated: %v", v)
	}
	st := svc.Status()
	if st.Flow.Admitted != int64(admitted) || st.Flow.Shed != int64(shed) {
		t.Fatalf("service stats (admitted=%d shed=%d) disagree with client view (admitted=%d shed=%d)",
			st.Flow.Admitted, st.Flow.Shed, admitted, shed)
	}
}

// Duplicate submission IDs are refused without disturbing the original.
func TestServiceDuplicateID(t *testing.T) {
	clk := &testClock{}
	svc, _ := newTestService(Config{MaxInFlightTasks: 100, MaxQueue: 4}, clk.now)
	if _, err := svc.Submit(testJob("dup", 1, 1)); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if _, err := svc.Submit(testJob("dup", 1, 1)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate submit error = %v", err)
	}
	if !svc.JobDone("dup") {
		t.Fatal("original job harmed by duplicate submission")
	}
}

// Cancel removes queued submissions and aborts live jobs.
func TestServiceCancel(t *testing.T) {
	clk := &testClock{}
	// Tiny budget and a driver that never finishes tasks: jobs stay live.
	cl := cluster.New(cluster.Config{Machines: 1, ExecutorsPerMachine: 1})
	svc := NewService(cl, core.DefaultOptions(), Config{MaxInFlightTasks: 2, MaxQueue: 4}, clk.now, nil)
	if out, err := svc.Submit(testJob("live", 1, 2)); err != nil || out.Decision != Admitted {
		t.Fatalf("submit live = %+v, %v", out, err)
	}
	if out, err := svc.Submit(testJob("parked", 1, 2)); err != nil || out.Decision != Queued {
		t.Fatalf("submit parked = %+v, %v", out, err)
	}
	if err := svc.Cancel("parked"); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if err := svc.Cancel("live"); err != nil {
		t.Fatalf("cancel live: %v", err)
	}
	if !svc.JobFailed("live") {
		t.Fatal("cancelled live job not failed")
	}
	if err := svc.Cancel("nope"); err == nil {
		t.Fatal("cancel of unknown id succeeded")
	}
}

// End-to-end tenant budgets: the flow controller's budget check reads the
// scheduler's live per-tenant in-flight counters, so a tenant at its
// budget queues while other tenants keep flowing, and Status reports the
// per-tenant picture.
func TestServiceTenantBudgets(t *testing.T) {
	clock := &testClock{}
	cl := cluster.New(cluster.Config{Machines: 4, ExecutorsPerMachine: 2})
	svc := NewService(cl, core.DefaultOptions(),
		Config{TenantBudgets: map[string]int{"a": 2}}, clock.now, nil)
	// No action sink: started tasks never finish, so in-flight stays put.

	ja1 := testJob("a1", 1, 2)
	ja1.Tenant = "a"
	if out, err := svc.Submit(ja1); err != nil || out.Decision != Admitted {
		t.Fatalf("a1: %v %v", out.Decision, err)
	}
	ja2 := testJob("a2", 1, 1)
	ja2.Tenant = "a"
	if out, err := svc.Submit(ja2); err != nil || out.Decision != Queued {
		t.Fatalf("a2 at budget: %v %v, want queued", out.Decision, err)
	}
	// Tenant b flows past the parked a2 (submitted later, admitted by the
	// pump during this very Submit call).
	jb := testJob("b1", 1, 1)
	jb.Tenant = "b"
	if out, err := svc.Submit(jb); err != nil || out.Decision != Queued {
		t.Fatalf("b1: %v %v, want queued (then pumped)", out.Decision, err)
	}
	st := svc.Status()
	byName := map[string]TenantStat{}
	for _, ts := range st.Tenants {
		byName[ts.Tenant] = ts
	}
	a, b := byName["a"], byName["b"]
	if a.Admitted != 1 || a.QueueLen != 1 || a.InFlight != 2 || a.Budget != 2 {
		t.Fatalf("tenant a = %+v", a)
	}
	if b.Admitted != 1 || b.QueueLen != 0 || b.InFlight != 1 {
		t.Fatalf("tenant b = %+v", b)
	}
	if svc.JobDone("b1") {
		t.Fatal("b1 cannot be done with no sink")
	}
	if v := svc.Invariants(); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
}
