package shuffle

import (
	"testing"

	"swift/internal/cluster"
)

func input(m, n, y int, bytes int64) CostInput {
	return CostInput{
		M: m, N: n,
		ProducerMachines: y, ConsumerMachines: y,
		Bytes:           bytes,
		ClusterMachines: 2000,
		Model:           cluster.DefaultModel(),
	}
}

// TestFig12Orderings asserts the central Fig. 12 result: Direct wins for
// small shuffles, Remote for medium, Local for large (total shuffle time).
func TestFig12Orderings(t *testing.T) {
	small := input(50, 50, 5, 2<<30)
	medium := input(200, 200, 10, 20<<30)
	large := input(1000, 1000, 50, 100<<30)

	cost := func(m Mode, in CostInput) float64 { return Cost(m, in).Total() }

	if !(cost(Direct, small) < cost(Remote, small) && cost(Direct, small) < cost(Local, small)) {
		t.Errorf("small: direct=%.3f remote=%.3f local=%.3f",
			cost(Direct, small), cost(Remote, small), cost(Local, small))
	}
	if !(cost(Remote, medium) < cost(Direct, medium) && cost(Remote, medium) < cost(Local, medium)) {
		t.Errorf("medium: direct=%.3f remote=%.3f local=%.3f",
			cost(Direct, medium), cost(Remote, medium), cost(Local, medium))
	}
	if !(cost(Local, large) < cost(Direct, large) && cost(Local, large) < cost(Remote, large)) {
		t.Errorf("large: direct=%.3f remote=%.3f local=%.3f",
			cost(Direct, large), cost(Remote, large), cost(Local, large))
	}
}

func TestDirectRetransGrowsWithFanout(t *testing.T) {
	small := Cost(Direct, input(50, 50, 5, 1<<30))
	large := Cost(Direct, input(1500, 1500, 75, 1<<30))
	if large.RetransRate <= small.RetransRate {
		t.Errorf("retrans small=%.5f large=%.5f", small.RetransRate, large.RetransRate)
	}
	if large.RetransRate > 0.03 {
		t.Errorf("retrans rate above the measured 3%% ceiling: %.4f", large.RetransRate)
	}
	// Cache-Worker modes stay at the measured <0.02%.
	if got := Cost(Local, input(1500, 1500, 75, 1<<30)).RetransRate; got > 0.0002 {
		t.Errorf("local retrans = %.5f", got)
	}
}

func TestDiskModeSlowerThanMemoryModes(t *testing.T) {
	in := input(200, 200, 10, 20<<30)
	disk := Cost(Disk, in).Total()
	for _, m := range []Mode{Direct, Local, Remote} {
		if Cost(m, in).Total() >= disk {
			t.Errorf("%v not faster than Disk (%.2f)", m, disk)
		}
	}
	if b := Cost(Disk, in); b.DiskWrite <= 0 || b.DiskRead <= 0 {
		t.Error("disk mode missing disk phases")
	}
	if b := Cost(Local, in); b.DiskWrite != 0 || b.DiskRead != 0 {
		t.Error("memory mode charged disk phases")
	}
}

func TestBreakdownPhases(t *testing.T) {
	b := Cost(Local, input(100, 100, 10, 10<<30))
	if b.Total() <= 0 {
		t.Fatal("zero total")
	}
	sum := b.Write() + b.Read()
	if diff := sum - b.Total(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Write+Read = %.6f, Total = %.6f", sum, b.Total())
	}
}

func TestCostDefensiveDefaults(t *testing.T) {
	// Nil model and zero machine counts must not panic or divide by zero.
	b := Cost(Direct, CostInput{M: 10, N: 10, Bytes: 1 << 20})
	if b.Total() <= 0 {
		t.Error("degenerate input gave non-positive cost")
	}
	if b := Cost(Remote, CostInput{M: 0, N: 0}); b.Total() != 0 {
		t.Errorf("empty shuffle cost = %f", b.Total())
	}
}

func TestCostMonotoneInBytes(t *testing.T) {
	for _, m := range []Mode{Direct, Local, Remote, Disk} {
		lo := Cost(m, input(100, 100, 10, 1<<30)).Total()
		hi := Cost(m, input(100, 100, 10, 64<<30)).Total()
		if hi <= lo {
			t.Errorf("%v: cost not monotone in bytes (%.3f vs %.3f)", m, lo, hi)
		}
	}
}

// TestCostServiceFieldsDefaultToV1 pins the zero-value contract: Replicas
// of 0 or 1 charge nothing, so unreplicated same-seed runs stay
// byte-identical.
func TestCostServiceFieldsDefaultToV1(t *testing.T) {
	for _, m := range []Mode{Direct, Local, Remote, Disk} {
		in := input(200, 200, 10, 20<<30)
		base := Cost(m, in)
		in.Replicas = 1 // R=1 means "no extra copies", same as unset
		again := Cost(m, in)
		if base != again {
			t.Errorf("%v: Replicas=1 changed the breakdown: %+v vs %+v", m, base, again)
		}
		if base.Replicate != 0 {
			t.Errorf("%v: unreplicated edge charged a replica copy: %+v", m, base)
		}
	}
}

func TestCostReplicationChargesWriteSide(t *testing.T) {
	in := input(200, 200, 10, 20<<30)
	base := Cost(Remote, in)
	in.Replicas = 3
	rep := Cost(Remote, in)
	if rep.Replicate <= 0 {
		t.Fatal("R=3 charged no replication cost")
	}
	if rep.Write() <= base.Write() {
		t.Error("replication not charged to the write phase")
	}
	if rep.Read() != base.Read() {
		t.Error("replication leaked into the read phase")
	}
	in.Replicas = 2
	if two := Cost(Remote, in).Replicate; two >= rep.Replicate {
		t.Errorf("replicate cost not monotone in R: R=2 %.3f vs R=3 %.3f", two, rep.Replicate)
	}
}

var costSink float64

// BenchmarkCost is the shuffle rung of the ladder: the simulator prices every
// edge of every job through Cost, once per task wave. One sub-benchmark per
// mode Swift selects, each on an edge of the size that mode is selected for.
func BenchmarkCost(b *testing.B) {
	for _, c := range []struct {
		mode Mode
		in   CostInput
	}{
		{Direct, input(50, 50, 5, 2<<30)},
		{Remote, input(200, 200, 10, 20<<30)},
		{Local, input(1000, 1000, 50, 100<<30)},
	} {
		b.Run(c.mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				costSink += Cost(c.mode, c.in).Total()
			}
		})
	}
}
