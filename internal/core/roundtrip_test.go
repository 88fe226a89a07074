package core_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/raceflag"
	"swift/internal/sched"
	"swift/internal/trace"
)

// roundTrip drives a controller the way a saturated replay does, minus the
// simulator: every job is admitted up front onto a cluster far too small
// for them, then tasks finish in launch order and each completion's freed
// executor goes to whatever the scheduler picks next.
type roundTrip struct {
	c       *core.Controller
	running []core.Action // the starts in launch order; [head:] are still running
	head    int
}

func newRoundTrip(tb testing.TB, opts core.Options, spec trace.Spec) *roundTrip {
	tb.Helper()
	cl := cluster.New(cluster.Config{Machines: 100, ExecutorsPerMachine: 30})
	rt := &roundTrip{c: core.NewController(cl, opts)}
	tr := trace.Generate(spec)
	tasks := 0
	for _, j := range tr.Jobs {
		tasks += j.Job.NumTasks()
	}
	// Room for every launch (and, under preemption, relaunches), so the
	// harness itself never allocates inside a measured step.
	rt.running = make([]core.Action, 0, 2*tasks)
	for _, j := range tr.Jobs {
		if err := rt.c.SubmitJob(j.Job); err != nil {
			tb.Fatal(err)
		}
		rt.collect()
	}
	if rt.c.Cluster().FreeExecutors() != 0 || rt.c.QueueLen() == 0 {
		tb.Fatalf("not saturated: %d executors free, %d requests queued", rt.c.Cluster().FreeExecutors(), rt.c.QueueLen())
	}
	return rt
}

func (rt *roundTrip) collect() {
	for _, a := range rt.c.Drain() {
		if a.Kind == core.ActStartTask {
			rt.running = append(rt.running, a)
		}
	}
}

// step finishes the oldest running task and takes the controller's
// answer. It reports false when nothing is left to finish.
func (rt *roundTrip) step() bool {
	if rt.head == len(rt.running) {
		return false
	}
	a := rt.running[rt.head]
	rt.head++
	rt.c.FinishTask(a.Job, int(a.Stage), a.Task.Index, int(a.Attempt)) // a no-op for an attempt preemption aborted
	rt.collect()
	return true
}

var fifoSpec = trace.Spec{Jobs: 2000, Seed: 1, RuntimeCap: 120}

func fairOptions() (core.Options, trace.Spec) {
	o := core.DefaultOptions()
	o.Policy = sched.NewFairShare(sched.FairShareConfig{Queues: []sched.QueueSpec{
		{Name: "a", Weight: 2},
		{Name: "b", Weight: 1},
		{Name: "c", Weight: 1, Quota: 600},
	}})
	return o, trace.Spec{Seed: 1, RuntimeCap: 120, Tenants: []trace.TenantSpec{
		{Name: "a", Jobs: 120, ArrivalWindow: 300},
		{Name: "b", Jobs: 240, ArrivalWindow: 300},
		{Name: "c", Jobs: 120, ArrivalWindow: 300},
	}}
}

// maxRoundTripAllocs is the committed allocation budget of one saturated
// FinishTask+Drain round trip under FIFO: the executor slice Allocate
// returns (8 bytes). The start action is a value in the controller's
// reused buffer. Job completions and queue growth add a fraction of an
// allocation on average, below what AllocsPerRun's integer mean can see; a
// per-event map, view, boxed action or request-sized buffer would.
const maxRoundTripAllocs = 1

func TestSaturatedRoundTripAllocs(t *testing.T) {
	checkRoundTripAllocs(t, core.DefaultOptions(), fifoSpec, maxRoundTripAllocs)
}

// maxFairRoundTripAllocs is the same budget through servePolicy and
// preemptRound (every completion on the dry pool asks Preempt too): the
// FIFO round trip's. The policy's views of the queue, the gangs and the
// tenants are kept by the controller, and its round reuses its water-fill
// scratch and grant buffer; a per-round map, budget record, rebuilt view
// or fresh grant plan would blow the budget.
const maxFairRoundTripAllocs = 1

func TestFairRoundTripAllocs(t *testing.T) {
	opts, spec := fairOptions()
	checkRoundTripAllocs(t, opts, spec, maxFairRoundTripAllocs)
}

// checkRoundTripAllocs holds a saturated FinishTask+Drain round trip in
// steady state to an allocation budget.
func checkRoundTripAllocs(t *testing.T, opts core.Options, spec trace.Spec, budget float64) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	rt := newRoundTrip(t, opts, spec)
	for i := 0; i < 5000; i++ { // past the first wave, into steady state
		rt.step()
	}
	allocs := testing.AllocsPerRun(20000, func() {
		if !rt.step() {
			t.Fatal("ran out of work")
		}
	})
	if allocs > budget {
		t.Errorf("saturated FinishTask+Drain: %.0f allocs per round trip, budget %.0f", allocs, budget)
	}
	if v := rt.c.CheckInvariants(); len(v) > 0 {
		t.Errorf("invariants: %v", v)
	}
}

func benchRoundTrip(b *testing.B, opts core.Options, spec trace.Spec) {
	rt := newRoundTrip(b, opts, spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !rt.step() {
			b.StopTimer()
			rt = newRoundTrip(b, opts, spec)
			b.StartTimer()
		}
	}
}

// BenchmarkRoundTripFIFO is replay_batch's controller work per completion:
// 2,000 jobs queued on 3,000 executors under the FIFO default.
func BenchmarkRoundTripFIFO(b *testing.B) {
	benchRoundTrip(b, core.DefaultOptions(), fifoSpec)
}

// BenchmarkRoundTripFairShare is the same round trip through servePolicy:
// three tenants under weighted fair share with a quota, every completion
// re-planned by the policy.
func BenchmarkRoundTripFairShare(b *testing.B) {
	opts, spec := fairOptions()
	benchRoundTrip(b, opts, spec)
}

// TestSharedFairShareAcrossControllers runs two controllers at once, in
// parallel goroutines, over one *sched.FairShare, the way a chaos preset's
// config or a fuzzer's arms share a policy value. Each controller gets a
// round of its own from the value, so under -race a round or a value that
// both write shows up, and each controller must start the tasks a
// controller run alone starts, in the same order.
func TestSharedFairShareAcrossControllers(t *testing.T) {
	opts, _ := fairOptions()
	spec := trace.Spec{Seed: 3, RuntimeCap: 60, Tenants: []trace.TenantSpec{
		{Name: "a", Jobs: 12, ArrivalWindow: 30},
		{Name: "b", Jobs: 24, ArrivalWindow: 30},
		{Name: "c", Jobs: 12, ArrivalWindow: 30},
	}}
	// drive admits the trace's jobs onto a small cluster tenant by tenant,
	// so the later tenants arrive starved at a pool the earlier ones hold,
	// finishing the oldest running task after each admission; then it
	// finishes tasks in launch order until none runs, and returns the starts.
	drive := func() ([]core.Action, error) {
		c := core.NewController(cluster.New(cluster.Config{Machines: 4, ExecutorsPerMachine: 8}), opts)
		var starts []core.Action
		head := 0
		step := func() bool {
			for _, a := range c.Drain() {
				if a.Kind == core.ActStartTask {
					starts = append(starts, a)
				}
			}
			if head == len(starts) {
				return false
			}
			a := starts[head]
			head++
			c.FinishTask(a.Job, int(a.Stage), a.Task.Index, int(a.Attempt)) // a no-op for an attempt preemption aborted
			return true
		}
		jobs := trace.Generate(spec).Jobs // a trace each: a job caches its order
		slices.SortStableFunc(jobs, func(x, y trace.Job) int { return strings.Compare(x.Job.Tenant, y.Job.Tenant) })
		for _, j := range jobs {
			if err := c.SubmitJob(j.Job); err != nil {
				return nil, err
			}
			step()
		}
		for step() {
		}
		if v := c.CheckInvariants(); len(v) > 0 {
			return nil, fmt.Errorf("invariants: %v", v)
		}
		if c.ReclaimedGangs() == 0 {
			return nil, fmt.Errorf("no gang reclaimed: Preempt never named a victim")
		}
		return starts, nil
	}
	want, err := drive()
	if err != nil {
		t.Fatal(err)
	}
	var got [2][]core.Action
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = drive()
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("controller %d: %v", i, errs[i])
		}
		if !slices.Equal(got[i], want) {
			t.Errorf("controller %d started %d tasks, alone %d, or in another order", i, len(got[i]), len(want))
		}
	}
}

// maxSubmitAllocs is SubmitJob's budget for a chain of n pipelined stages,
// as measured: about nine allocations a stage (its state, its one
// task-record slice, its edge lists, what validation, partitioning and
// shuffle selection spend on it) over about ten for the job, which keeps
// no map of its own.
var maxSubmitAllocs = map[int]float64{4: 43, 32: 290}

// TestSubmitJobAllocs holds admission to a per-stage allocation budget. On
// a dry pool SubmitJob admits a chain of pipelined stages and queues its
// one graphlet but launches nothing; what that allocates may grow with the
// stages but not with the tasks per stage, which one record slice per
// stage keeps true.
func TestSubmitJobAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	measure := func(stages, tasks int) float64 {
		const runs = 64
		jobs := make([]*dag.Job, runs+1) // AllocsPerRun warms up once
		for i := range jobs {
			b := dag.NewBuilder(fmt.Sprintf("j%d", i))
			for s := 0; s < stages; s++ {
				b.Stage(fmt.Sprintf("S%d", s), tasks, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpShuffleWrite))
				if s > 0 {
					b.Pipeline(fmt.Sprintf("S%d", s-1), fmt.Sprintf("S%d", s), 1<<20)
				}
			}
			jobs[i] = b.MustBuild()
		}
		cl := cluster.New(cluster.Config{Machines: 1, ExecutorsPerMachine: 1})
		cl.Allocate(1, nil) // a dry pool: nothing launches
		c := core.NewController(cl, core.DefaultOptions())
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if err := c.SubmitJob(jobs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if c.QueueLen() != runs+1 || cl.BusyExecutors() != 1 {
			t.Fatalf("%d×%d: %d queued, %d busy; want every job queued and nothing launched", stages, tasks, c.QueueLen(), cl.BusyExecutors())
		}
		return allocs
	}
	for _, stages := range []int{4, 32} {
		narrow, wide := measure(stages, 20), measure(stages, 160)
		t.Logf("%d stages: %.0f allocs at 20 tasks per stage, %.0f at 160", stages, narrow, wide)
		if narrow != wide {
			t.Errorf("%d stages: %.0f allocs at 20 tasks per stage, %.0f at 160; want no per-task allocation", stages, narrow, wide)
		}
		if budget := maxSubmitAllocs[stages]; wide > budget {
			t.Errorf("%d stages: %.0f allocs per SubmitJob, budget %.0f", stages, wide, budget)
		}
	}
}
