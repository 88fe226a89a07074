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
// task completion on a saturated cluster: the successor's ActStartTask
// boxed into a core.Action, then the attempt the driver starts for it —
// its runningTask and the closure that arms its finish event. A
// completion whose graphlet has nothing left to launch hands its executor
// to the queue through Allocate, whose result slice adds a fraction of an
// allocation on average, below what AllocsPerRun's integer mean can see.
const maxFinishTaskAllocs = 3

// TestFinishTaskAllocs replays a burst far larger than the cluster, one
// engine event at a time: past the submissions every event is an armed
// finishTask.
func TestFinishTaskAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	r := New(Config{
		Cluster: cluster.Config{Machines: 20, ExecutorsPerMachine: 10, Model: cluster.DefaultModel()},
		Options: core.DefaultOptions(),
		Seed:    1,
	})
	for _, j := range trace.Generate(trace.Spec{Jobs: 400, Seed: 1, RuntimeCap: 120}).Jobs {
		if err := r.Submit(j.Job); err != nil {
			t.Fatal(err)
		}
	}
	if r.Controller().QueueLen() == 0 {
		t.Fatal("not saturated: nothing queued")
	}
	step := func() {
		if _, drained := r.Engine().RunBounded(sim.Time(math.MaxInt64), 1); drained {
			t.Fatal("ran out of work")
		}
	}
	for i := 0; i < 2000; i++ { // past the first wave, into steady state
		step()
	}
	if allocs := testing.AllocsPerRun(5000, step); allocs > maxFinishTaskAllocs {
		t.Errorf("finishTask on a saturated cluster: %.0f allocs per completion, budget %d", allocs, maxFinishTaskAllocs)
	}
}
