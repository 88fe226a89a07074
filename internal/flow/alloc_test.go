package flow

import (
	"testing"

	"swift/internal/core"
	"swift/internal/raceflag"
)

// The admission state machine's allocation budget: a job that queues and
// is later released, or is admitted at once, costs the controller nothing
// however deep the wait queue runs; only a shed allocates, for the typed
// error it returns.
func TestControllerAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxInFlight = 8
	busy := core.StateSnapshot{PendingTasks: maxInFlight, TotalExecutors: 4}
	idle := core.StateSnapshot{TotalExecutors: 4, FreeExecutors: 4}
	payload := &struct{}{}
	var allocs [2]float64
	for i, depth := range []int{16, 8 * 16} {
		f := NewController(Config{MaxInFlightTasks: maxInFlight, MaxQueue: depth}, 4)
		items := make([]Item, depth)
		for j := range items {
			items[j] = Item{ID: "job", Tasks: 1 + j%maxInFlight, Payload: payload}
		}
		round := func() {
			if out, err := f.Offer(0, idle, items[0]); err != nil || out.Decision != Admitted {
				t.Fatalf("offer on an idle cluster: %+v, %v", out, err)
			}
			for _, it := range items {
				if out, err := f.Offer(1, busy, it); err != nil || out.Decision != Queued {
					t.Fatalf("offer against a full budget: %+v, %v", out, err)
				}
			}
			if f.LevelFor(busy, 1) != LevelShed {
				t.Fatal("a full wait queue does not shed")
			}
			for range items {
				if _, ok := f.PopAdmissible(2, idle); !ok {
					t.Fatal("queued job not released on an idle cluster")
				}
			}
		}
		round() // grow the wait queue to its working size
		allocs[i] = testing.AllocsPerRun(20, round)
	}
	if allocs[0] != 0 || allocs[1] != 0 {
		t.Errorf("offer, queue and release: %.0f allocs per round at depth 16, %.0f at depth 128, want 0", allocs[0], allocs[1])
	}

	f := NewController(Config{MaxInFlightTasks: maxInFlight, MaxQueue: 1}, 4)
	if _, err := f.Offer(0, busy, Item{ID: "parked", Tasks: 1}); err != nil {
		t.Fatal(err)
	}
	shed := Item{ID: "shed", Tasks: 1, Payload: payload}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.Offer(1, busy, shed); err == nil {
			t.Fatal("offer against a full wait queue was not shed")
		}
	}); allocs > 1 {
		t.Errorf("shed: %.0f allocs, budget 1 (the *OverloadError)", allocs)
	}
}

// TestTasksFinishedAllocs holds Service.TasksFinished on a saturated
// cluster (batchRun's 2,000-job burst) to what each completion costs the
// scheduler behind it — core's round-trip budget: the executor slice
// Allocate returns. The batch's actions are copied into a buffer from the
// service's free list, so the copy allocates nothing once the buffers
// have grown.
func TestTasksFinishedAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	r := newBatchRun(t)
	// Room for every launch still to come, so the sink's own appends stay
	// out of the count.
	pending := r.svc.Status().Snapshot.PendingTasks
	r.running = append(make([]Completion, 0, len(r.running)+pending), r.running...)
	for i := 0; i < 50; i++ { // past the first wave, into steady state
		r.step()
	}
	for _, size := range []int{8, 8 * 8} {
		allocs := testing.AllocsPerRun(50, func() {
			if len(r.running)-r.head < size {
				t.Fatal("ran out of work")
			}
			r.svc.TasksFinished(r.running[r.head : r.head+size])
			r.head += size
		})
		if budget := float64(size); allocs > budget {
			t.Errorf("TasksFinished of %d completions: %.0f allocs, budget %.0f (1 per completion)", size, allocs, budget)
		}
	}
	if v := r.svc.Invariants(); len(v) != 0 {
		t.Errorf("invariants: %v", v)
	}
}
