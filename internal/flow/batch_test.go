package flow

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/raceflag"
	"swift/internal/sim"
)

// recorder is a sink that completes nothing: it keeps the action stream as
// delivered and the started attempts still running, for the test to finish
// in an order of its choosing.
type recorder struct {
	acts    []core.Action
	running []Completion
	starts  map[Completion]int
	refs    map[Completion]core.TaskRef // each started attempt's task by name
}

func (r *recorder) sink(_ sim.Time, acts []core.Action, _ []float64) {
	r.acts = append(r.acts, acts...)
	for _, a := range acts {
		if a.Kind == core.ActStartTask {
			c := CompletionOf(&a)
			r.running = append(r.running, c)
			r.starts[c]++
			r.refs[c] = a.Task
		}
	}
}

// take removes and returns a random running attempt.
func (r *recorder) take(rng *rand.Rand) Completion {
	i := rng.Intn(len(r.running))
	c := r.running[i]
	r.running[i] = r.running[len(r.running)-1]
	r.running = r.running[:len(r.running)-1]
	return c
}

func newRecordedService(fcfg Config) (*Service, *recorder) {
	clk := &testClock{}
	cl := cluster.New(cluster.Config{Machines: 4, ExecutorsPerMachine: 2})
	rec := &recorder{starts: make(map[Completion]int), refs: make(map[Completion]core.TaskRef)}
	svc := NewService(cl, core.DefaultOptions(), fcfg, clk.now, rec.sink)
	return svc, rec
}

func submitMix(t *testing.T, svc *Service, rng *rand.Rand, jobs int) (largest int) {
	t.Helper()
	for i := 0; i < jobs; i++ {
		j := testJob(fmt.Sprintf("j%d", i), 1+rng.Intn(3), 1+rng.Intn(4))
		if n := j.NumTasks(); n > largest {
			largest = n
		}
		if _, err := svc.Submit(j); err != nil {
			t.Fatalf("submit %s: %v", j.ID, err)
		}
	}
	return largest
}

// With an empty wait queue the pump has nothing to release, so how a
// completion sequence is cut into batches must be invisible: the same
// concatenated action stream, the same snapshot, no invariant broken. The
// reference run names each completion by its task reference, the batches
// by the start action's handle, so the two paths must also agree.
func TestTasksFinishedBatchSplitsAreInvisible(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fcfg := Config{MaxInFlightTasks: 1 << 20, MaxQueue: 4}
		one, oneRec := newRecordedService(fcfg)
		batched, batchedRec := newRecordedService(fcfg)
		submitMix(t, one, rand.New(rand.NewSource(seed)), 12)
		submitMix(t, batched, rand.New(rand.NewSource(seed)), 12)

		// The reference run picks the completion order; a later completion
		// may be of a task an earlier one started.
		var seq []Completion
		for len(oneRec.running) > 0 {
			c := oneRec.take(rng)
			seq = append(seq, c)
			one.TaskFinished(oneRec.refs[c], int(c.Attempt))
		}
		for rest := seq; len(rest) > 0; {
			n := 1 + rng.Intn(9)
			if n > len(rest) {
				n = len(rest)
			}
			batched.TasksFinished(rest[:n])
			rest = rest[n:]
		}

		if !reflect.DeepEqual(oneRec.acts, batchedRec.acts) {
			t.Fatalf("seed %d: action streams differ (%d vs %d actions)", seed, len(oneRec.acts), len(batchedRec.acts))
		}
		if a, b := one.Status().Snapshot, batched.Status().Snapshot; !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: snapshots differ: %+v vs %+v", seed, a, b)
		}
		if snap := batched.Status().Snapshot; snap.LiveJobs != 0 || len(seq) == 0 {
			t.Fatalf("seed %d: run did not finish: %+v after %d completions", seed, snap, len(seq))
		}
		for _, svc := range []*Service{one, batched} {
			if v := svc.Invariants(); len(v) != 0 {
				t.Fatalf("seed %d: invariants violated: %v", seed, v)
			}
		}
	}
}

// With jobs waiting, the pump runs once per batch instead of once per
// completion, so a queued job may be admitted later within a batch — but
// still exactly once, never past the in-flight budget, and with the
// controller's invariants intact after every batch.
func TestTasksFinishedBatchPumpsWaitQueue(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const jobs, budget = 24, 10
		svc, rec := newRecordedService(Config{MaxInFlightTasks: budget, MaxQueue: jobs})
		bound := submitMix(t, svc, rng, jobs)
		if bound < budget {
			bound = budget // an oversized job admits alone; nothing else exceeds the budget
		}
		if svc.Status().Flow.QueueLen == 0 {
			t.Fatalf("seed %d: nothing queued, the test would not exercise the pump", seed)
		}
		var batch []Completion
		for len(rec.running) > 0 {
			batch = batch[:0]
			for n := 1 + rng.Intn(6); n > 0 && len(rec.running) > 0; n-- {
				batch = append(batch, rec.take(rng))
			}
			svc.TasksFinished(batch)
			if in := svc.Status().Snapshot.InFlightTasks(); in > bound {
				t.Fatalf("seed %d: %d tasks in flight, budget %d", seed, in, bound)
			}
			if v := svc.Invariants(); len(v) != 0 {
				t.Fatalf("seed %d: invariants violated mid-run: %v", seed, v)
			}
		}
		st := svc.Status()
		if st.Flow.Admitted != jobs || st.Flow.QueueLen != 0 || st.Snapshot.LiveJobs != 0 {
			t.Fatalf("seed %d: admitted %d of %d, %d still queued, %d live", seed, st.Flow.Admitted, jobs, st.Flow.QueueLen, st.Snapshot.LiveJobs)
		}
		for i := 0; i < jobs; i++ {
			if id := fmt.Sprintf("j%d", i); !svc.JobDone(id) {
				t.Fatalf("seed %d: job %s never completed", seed, id)
			}
		}
		for c, n := range rec.starts {
			if n != 1 {
				t.Fatalf("seed %d: %v#%d started %d times", seed, rec.refs[c], c.Attempt, n)
			}
		}
	}
}

// The deadline heap against a stable sort on the deadline: equal deadlines
// pop in push order, nothing pops early, and a pop never exceeds its
// buffer, leaving the rest due for the next call.
func TestDeadlineHeapMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type entry struct {
			at sim.Time
			c  Completion
		}
		var h DeadlineHeap
		var oracle []entry // kept stably sorted by deadline
		pushed := 0
		now := sim.Time(0)
		for step := 0; step < 400; step++ {
			if rng.Intn(3) > 0 {
				for n := rng.Intn(8); n > 0; n-- {
					e := entry{at: now + sim.Time(rng.Intn(6)), c: Completion{Attempt: int32(pushed)}}
					pushed++
					h.Push(e.at, e.c)
					oracle = append(oracle, e)
				}
				sort.SliceStable(oracle, func(i, j int) bool { return oracle[i].at < oracle[j].at })
				continue
			}
			now += sim.Time(rng.Intn(4))
			buf := make([]Completion, rng.Intn(5))
			n := h.PopDue(now, buf)
			want := 0
			for want < len(buf) && want < len(oracle) && oracle[want].at <= now {
				want++
			}
			if n != want {
				t.Fatalf("seed %d step %d: popped %d, oracle %d (bound %d)", seed, step, n, want, len(buf))
			}
			for i := 0; i < n; i++ {
				if buf[i] != oracle[i].c {
					t.Fatalf("seed %d step %d: pop %d = #%d, oracle #%d", seed, step, i, buf[i].Attempt, oracle[i].c.Attempt)
				}
			}
			oracle = oracle[n:]
			if at, ok := h.Next(); ok != (len(oracle) > 0) || (ok && at != oracle[0].at) {
				t.Fatalf("seed %d step %d: next = %v,%v, oracle %v", seed, step, at, ok, oracle)
			}
		}
	}
}

// A heap that has reached its working size neither pushes nor pops through
// the allocator.
func TestDeadlineHeapDoesNotAllocate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var h DeadlineHeap
	var buf [16]Completion
	round := func() {
		for i := 0; i < 64; i++ {
			h.Push(sim.Time(i%7), Completion{Attempt: int32(i)})
		}
		for h.PopDue(7, buf[:]) > 0 {
		}
	}
	round() // grow to the working size
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("push+pop allocated %.1f times per 64-task round, want 0", allocs)
	}
}

// The daemon's shape under the race detector: four submitters and one
// driver goroutine that completes started tasks in batches, all against
// one service. Everything accepted finishes and the invariants hold.
func TestServiceSubmittersAgainstBatchDriver(t *testing.T) {
	clk := &testClock{}
	cl := cluster.New(cluster.Config{Machines: 4, ExecutorsPerMachine: 2})
	var (
		mu   sync.Mutex
		due  DeadlineHeap
		wake = make(chan struct{}, 1)
	)
	sink := func(now sim.Time, acts []core.Action, _ []float64) {
		mu.Lock()
		for _, a := range acts {
			if a.Kind == core.ActStartTask {
				due.Push(now, CompletionOf(&a))
			}
		}
		mu.Unlock()
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	svc := NewService(cl, core.DefaultOptions(), Config{MaxInFlightTasks: 16, MaxQueue: 64}, clk.now, sink)
	stop := make(chan struct{})
	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		var batch [8]Completion
		for {
			mu.Lock()
			n := due.PopDue(clk.now(), batch[:])
			mu.Unlock()
			if n > 0 {
				svc.TasksFinished(batch[:n])
				continue
			}
			select {
			case <-wake:
			case <-stop:
				return
			}
		}
	}()

	const submitters, perSubmitter = 4, 12
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				if _, err := svc.Submit(testJob(fmt.Sprintf("w%d-j%d", w, i), 2, 3)); err != nil {
					t.Errorf("submit w%d-j%d: %v", w, i, err)
				}
			}
		}()
	}
	wg.Wait()
	svc.Drain()
	<-svc.Drained()
	close(stop)
	<-driverDone
	st := svc.Status()
	if st.Flow.Admitted != submitters*perSubmitter || st.Snapshot.LiveJobs != 0 {
		t.Fatalf("admitted %d of %d, %d live after drain", st.Flow.Admitted, submitters*perSubmitter, st.Snapshot.LiveJobs)
	}
	if v := svc.Invariants(); len(v) != 0 {
		t.Fatalf("invariants violated: %v", v)
	}
}
