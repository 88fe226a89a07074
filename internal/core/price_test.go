package core

import (
	"slices"
	"testing"

	"swift/internal/dag"
	"swift/internal/shuffle"
)

// A job is priced once, at admission, under the modes SubmitJob chose: a
// Cache Worker crash that later degrades an edge to Direct leaves the
// price as it was, and the price goes with the job when it retires.
func TestPriceFixedAtAdmission(t *testing.T) {
	opts := DefaultOptions()
	opts.Shuffle = FixedShuffle(shuffle.Local)
	const machines = 2
	h := newHarness(t, machines, 4, opts)
	job := dag.NewBuilder("j").
		StageOpt(&dag.Stage{Name: "A", Tasks: 2, Idempotent: true,
			Cost: dag.Cost{ScanBytes: 1 << 30, ProcessSecondsPerTask: 2}}).
		StageOpt(&dag.Stage{Name: "B", Tasks: 3, Idempotent: true,
			Cost: dag.Cost{ProcessSecondsPerTask: 1}}).
		Barrier("A", "B", 64<<20).
		MustBuild()
	h.submit(job)
	hd := h.c.Handle("j")
	before := slices.Clone(h.c.Price(hd))

	// The price, summed term by term from the cost model.
	m := h.cl.Model()
	in := shuffle.CostInput{
		M: 2, N: 3, ProducerMachines: m.Spread(2, machines), ConsumerMachines: m.Spread(3, machines),
		Bytes: 64 << 20, ClusterMachines: machines, Model: m,
	}
	edge := shuffle.Cost(shuffle.Local, in)
	if shuffle.Cost(shuffle.Direct, in).Read() == edge.Read() {
		t.Fatal("Direct and Local read the edge equally fast: a re-price would not show")
	}
	launch := m.SwiftPlanDelivery + m.TaskDispatch
	want := []shuffle.StageCost{
		{Launch: launch, Scan: m.ScanTime(1<<30, 2), Process: 2, Write: edge.Write()},
		{Launch: launch, Scan: m.ScanTime(0, 3), Read: edge.Read(), Process: 1},
	}
	if !slices.Equal(before, want) {
		t.Fatalf("Price = %+v, want %+v", before, want)
	}

	a0 := h.running[ref("j", "A", 0)].Executor
	h.finish(ref("j", "A", 0))
	h.finish(ref("j", "A", 1))
	h.c.CacheWorkerLost(h.cl.MachineOf(a0))
	h.drain()
	if got := h.c.edgeMode("j", "A", "B"); got != shuffle.Direct {
		t.Fatalf("edge A->B is %v after the Cache Worker crash, want Direct", got)
	}
	if got := h.c.Price(hd); !slices.Equal(got, before) {
		t.Fatalf("Price after the crash = %+v, want the admission price %+v", got, before)
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job not completed")
	}
	for _, hd := range []JobHandle{hd, 0, hd + 1, -1} {
		if got := h.c.Price(hd); got != nil {
			t.Errorf("Price(%d) = %+v, want nil", hd, got)
		}
	}
}
