package flow

import (
	"testing"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/sim"
	"swift/internal/trace"
)

// batchRun drives a service the way swiftd's completion driver does under
// a burst: 2,000 jobs admitted at once onto 3,000 executors, then started
// tasks finish in launch order, 64 per TasksFinished call.
type batchRun struct {
	svc     *Service
	running []Completion // launch order; [head:] are still running
	head    int
}

func newBatchRun(tb testing.TB) *batchRun {
	tb.Helper()
	r := &batchRun{}
	var now sim.Time
	cl := cluster.New(cluster.Config{Machines: 100, ExecutorsPerMachine: 30})
	sink := func(_ sim.Time, acts []core.Action, _ []float64) {
		for _, a := range acts {
			if a.Kind == core.ActStartTask {
				r.running = append(r.running, CompletionOf(&a))
			}
		}
	}
	r.svc = NewService(cl, core.DefaultOptions(), Config{MaxInFlightTasks: 1 << 30},
		func() sim.Time { now++; return now }, sink)
	for _, j := range trace.Generate(trace.Spec{Jobs: 2000, Seed: 1, RuntimeCap: 120}).Jobs {
		if out, err := r.svc.Submit(j.Job); err != nil || out.Decision != Admitted {
			tb.Fatalf("submit %s: %+v, %v", j.Job.ID, out, err)
		}
	}
	return r
}

// step finishes the 64 oldest running tasks in one batch. It reports false
// when fewer are left.
func (r *batchRun) step() bool {
	if len(r.running)-r.head < 64 {
		return false
	}
	r.svc.TasksFinished(r.running[r.head : r.head+64])
	r.head += 64
	return true
}

func BenchmarkTasksFinishedBatch64(b *testing.B) {
	r := newBatchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.step() {
			b.StopTimer()
			if v := r.svc.Invariants(); len(v) != 0 {
				b.Fatalf("invariants: %v", v)
			}
			r = newBatchRun(b)
			b.StartTimer()
			r.step()
		}
	}
}
