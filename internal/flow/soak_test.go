package flow

import (
	"flag"
	"fmt"
	"runtime"
	"testing"
	"time"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/raceflag"
	"swift/internal/sim"
)

// -flow.soakjobs sets how many jobs TestServiceSoakResidue runs through one
// service: tier-1 runs the default, scripts/ci.sh -long a million.
var soakJobs = flag.Int("flow.soakjobs", 20000, "number of short jobs TestServiceSoakResidue runs through one service")

// soakResidue is how far the heap in use may grow per retired job once
// the service is warm. What stays of a job is its id in core's outcome
// table and in the service's submitted set, which shares the id's bytes,
// and the 8-B nil slot of core's handle table; its price went with its
// monitor (core.Controller.Price). Measured on linux/amd64 with go1.24 on
// a 2-vCPU VM: 125–126 B a job at 20,000 jobs and 162 B at 1,000,000 (the
// tables' load factor differs), against 144–152 B and 191 B while the
// service kept a price table of its own and 2,824 B while core kept every
// monitor. A flat heap needs an id-reuse policy for both id tables and
// slot reuse for core's handle table (DESIGN.md "Control-plane
// performance").
const soakResidue = 176

// TestServiceSoakResidue runs -flow.soakjobs short two-stage jobs through
// one flow.Service under a fake clock, eight at a time, completing every
// task through TasksFinished, and holds the heap in use after warm-up to
// soakResidue bytes a job. It reports the wall time per job.
func TestServiceSoakResidue(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const round = 8
	jobs := *soakJobs
	warm := max(jobs/10, round)
	clk := &testClock{}
	var running, batch []Completion
	sink := func(_ sim.Time, acts []core.Action, _ []float64) {
		for _, a := range acts {
			if a.Kind == core.ActStartTask {
				running = append(running, CompletionOf(&a))
			}
		}
	}
	svc := NewService(cluster.New(cluster.Config{Machines: 4, ExecutorsPerMachine: 2}),
		core.DefaultOptions(), Config{}, clk.now, sink)
	run := func(from, to int) {
		for i := from; i < to; {
			for end := min(i+round, to); i < end; i++ {
				if _, err := svc.Submit(testJob(fmt.Sprintf("soak%d", i), 2, 1)); err != nil {
					t.Fatalf("submit soak%d: %v", i, err)
				}
			}
			for len(running) > 0 {
				batch, running = append(batch[:0], running...), running[:0]
				svc.TasksFinished(batch)
			}
			if id := fmt.Sprintf("soak%d", i-1); !svc.JobDone(id) {
				t.Fatalf("%s did not complete: %+v", id, svc.Status())
			}
		}
	}
	start := time.Now()
	run(0, warm)
	before := heapInuse()
	run(warm, jobs)
	after := heapInuse()
	wall := time.Since(start)
	runtime.KeepAlive(svc)

	if st := svc.Status(); st.Snapshot.LiveJobs != 0 || st.Flow.Admitted != int64(jobs) {
		t.Errorf("after the soak: %d live jobs, %d admitted of %d", st.Snapshot.LiveJobs, st.Flow.Admitted, jobs)
	}
	if v := svc.Invariants(); len(v) != 0 {
		t.Errorf("invariants: %v", v)
	}
	per := (float64(after) - float64(before)) / float64(jobs-warm)
	t.Logf("%d jobs in %v (%.1f µs a job); heap in use %.1f → %.1f MiB after warm-up, %.0f B a job",
		jobs, wall.Round(time.Millisecond), float64(wall.Microseconds())/float64(jobs),
		float64(before)/(1<<20), float64(after)/(1<<20), per)
	if per > soakResidue {
		t.Errorf("heap in use grew %.0f B a job after warm-up, budget %d B", per, soakResidue)
	}
}

// heapInuse returns the bytes in in-use heap spans after a full collection.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}
