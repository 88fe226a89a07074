package simrun

import (
	"math"
	"testing"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/raceflag"
	"swift/internal/sim"
	"swift/internal/trace"
)

// maxFinishTaskAllocs is the committed allocation budget of one simulated
// task completion on a saturated cluster: none. The successor's start is a
// core.Action value in the controller's reused buffer, the attempt the
// driver starts for it reuses the finished attempt's record, and its
// finish is armed with the record itself as the event's handler. A
// completion whose graphlet has nothing left to launch hands its executor
// to the queue through Allocate, whose result slice — like the growth of
// the job's sample slice and the executor series — adds a fraction of an
// allocation on average, below what AllocsPerRun's integer mean can see.
const maxFinishTaskAllocs = 0

// saturated returns a runner with a burst far larger than its cluster
// admitted, and a step that runs one engine event: past the submissions
// every event is an armed finishTask. The step reports false once the
// run has drained.
func saturated(tb testing.TB) (*Runner, func() bool) {
	r := New(Config{
		Cluster: cluster.Config{Machines: 20, ExecutorsPerMachine: 10, Model: cluster.DefaultModel()},
		Options: core.DefaultOptions(),
		Seed:    1,
	})
	for _, j := range trace.Generate(trace.Spec{Jobs: 400, Seed: 1, RuntimeCap: 120}).Jobs {
		if err := r.Submit(j.Job); err != nil {
			tb.Fatal(err)
		}
	}
	if r.Controller().QueueLen() == 0 {
		tb.Fatal("not saturated: nothing queued")
	}
	return r, func() bool {
		_, drained := r.Engine().RunBounded(sim.Time(math.MaxInt64), 1)
		return !drained
	}
}

// TestFinishTaskAllocs replays the saturated burst one completion at a
// time in steady state.
func TestFinishTaskAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	_, step := saturated(t)
	for i := 0; i < 2000; i++ { // past the first wave, into steady state
		step()
	}
	allocs := testing.AllocsPerRun(5000, func() {
		if !step() {
			t.Fatal("ran out of work")
		}
	})
	if allocs > maxFinishTaskAllocs {
		t.Errorf("finishTask on a saturated cluster: %.0f allocs per completion, budget %d", allocs, maxFinishTaskAllocs)
	}
}

// BenchmarkFinishTask is the simulator's cost per completion on the
// saturated cluster TestFinishTaskAllocs drives: the engine pop, the
// driver's bookkeeping, the controller round trip and the successor's
// start. Iteration i times completion 2,000 + i mod finishWindow of a
// fresh burst's replay (untimed: building the burst and its first 2,000
// steps), so every iteration count times the same completions, all of
// them with requests still queued.
func BenchmarkFinishTask(b *testing.B) {
	const finishWindow = 40000 // the burst's queue empties after ≈ 43,600
	_, step := saturated(b)
	for step() { // one untimed replay grows the heap to its steady size
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%finishWindow == 0 {
			b.StopTimer()
			_, step = saturated(b)
			for j := 0; j < 2000; j++ {
				step()
			}
			b.StartTimer()
		}
		if !step() {
			b.Fatal("the burst drained inside the window")
		}
	}
}
