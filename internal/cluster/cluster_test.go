package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() *Cluster {
	return New(Config{Machines: 4, ExecutorsPerMachine: 3, Model: DefaultModel()})
}

func TestNewCounts(t *testing.T) {
	c := small()
	if c.NumMachines() != 4 || c.NumExecutors() != 12 || c.FreeExecutors() != 12 {
		t.Errorf("counts: %v", c)
	}
	if c.BusyExecutors() != 0 {
		t.Error("fresh cluster has busy executors")
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid config did not panic")
		}
	}()
	New(Config{Machines: 0, ExecutorsPerMachine: 1})
}

func TestAllocateBalancesLoad(t *testing.T) {
	c := small()
	got := c.Allocate(4, nil)
	if len(got) != 4 {
		t.Fatalf("allocated %d", len(got))
	}
	// With no locality, allocation spreads one per machine.
	seen := make(map[MachineID]int)
	for _, e := range got {
		seen[c.MachineOf(e)]++
	}
	if len(seen) != 4 {
		t.Errorf("allocation not spread: %v", seen)
	}
}

func TestAllocateLocality(t *testing.T) {
	c := small()
	got := c.Allocate(2, []MachineID{2})
	if len(got) != 2 {
		t.Fatalf("allocated %d", len(got))
	}
	for _, e := range got {
		if c.MachineOf(e) != 2 {
			t.Errorf("executor %d on machine %d, want 2", e, c.MachineOf(e))
		}
	}
}

func TestAllocateAntiFlock(t *testing.T) {
	// Locality must not push a machine past 90% load: with 3 slots the
	// third request for the same machine spills elsewhere.
	c := small()
	got := c.Allocate(3, []MachineID{1})
	onPreferred := 0
	for _, e := range got {
		if c.MachineOf(e) == 1 {
			onPreferred++
		}
	}
	if onPreferred != 2 {
		t.Errorf("preferred machine got %d tasks, want 2 (anti-flock)", onPreferred)
	}
}

func TestAllocateExhaustion(t *testing.T) {
	c := small()
	got := c.Allocate(100, nil)
	if len(got) != 12 {
		t.Errorf("allocated %d, want all 12", len(got))
	}
	if c.FreeExecutors() != 0 {
		t.Error("free pool not drained")
	}
	if more := c.Allocate(1, nil); len(more) != 0 {
		t.Errorf("over-allocated %d", len(more))
	}
	if got := c.Allocate(0, nil); got != nil {
		t.Errorf("Allocate(0) = %v", got)
	}
}

func TestReleaseRepools(t *testing.T) {
	c := small()
	got := c.Allocate(5, nil)
	c.Release(got)
	if c.FreeExecutors() != 12 || c.BusyExecutors() != 0 {
		t.Errorf("after release: %v", c)
	}
	// Double release is harmless.
	c.Release(got)
	if c.FreeExecutors() != 12 {
		t.Error("double release corrupted pool")
	}
}

func TestHealthTransitions(t *testing.T) {
	c := small()
	busy := c.Allocate(2, []MachineID{0})
	c.SetHealth(0, ReadOnly)
	if c.FreeExecutors() != 9 {
		t.Errorf("free after read-only = %d, want 9", c.FreeExecutors())
	}
	// Busy executors on a read-only machine keep running...
	if got := c.BusyExecutors(); got != 2 {
		t.Errorf("busy on machine 0 = %d", got)
	}
	// ...and are not re-pooled on release.
	c.Release(busy)
	if c.FreeExecutors() != 9 {
		t.Errorf("free after draining read-only = %d, want 9", c.FreeExecutors())
	}
	// Allocation skips non-healthy machines even with locality.
	for _, e := range c.Allocate(12, []MachineID{0}) {
		if c.MachineOf(e) == 0 {
			t.Error("allocated on read-only machine")
		}
	}
	c.SetHealth(0, Healthy)
	if c.FreeExecutors() != 3 {
		t.Errorf("free after heal = %d, want 3", c.FreeExecutors())
	}
	if Healthy.String() != "healthy" || ReadOnly.String() != "read-only" || Failed.String() != "failed" {
		t.Error("health strings wrong")
	}
}

func TestTaskFailureCounter(t *testing.T) {
	c := small()
	if got := c.RecordTaskFailure(1); got != 1 {
		t.Errorf("count = %d", got)
	}
	if got := c.RecordTaskFailure(1); got != 2 {
		t.Errorf("count = %d", got)
	}
	c.ResetTaskFailures(1)
	if got := c.RecordTaskFailure(1); got != 1 {
		t.Errorf("after reset = %d", got)
	}
}

func TestModelBasics(t *testing.T) {
	m := DefaultModel()
	if m.ConnSetupLatency(0) < m.ConnSetupBase {
		t.Error("latency below base")
	}
	if m.ConnSetupLatency(1) != m.ConnSetupBase+m.ConnSetupCongested {
		t.Error("saturated latency wrong")
	}
	if m.ConnSetupLatency(-5) != m.ConnSetupLatency(0) || m.ConnSetupLatency(5) != m.ConnSetupLatency(1) {
		t.Error("latency not clamped")
	}
	if m.ConnSetupTime(0, 0.5) != 0 {
		t.Error("zero conns should cost nothing")
	}
	if m.ConnSetupTime(100, 0.5) <= m.ConnSetupTime(10, 0.5) {
		t.Error("setup not monotone in conns")
	}
	if m.RetransRate(0) != 0 || m.RetransRate(1<<40) > m.RetransMaxRate {
		t.Error("retrans rate bounds violated")
	}
	if m.RetransSlowdown(0) != 1 {
		t.Error("zero rate should not slow down")
	}
	if m.NetTransferTime(0, 5) != 0 || m.NetTransferTime(100, 0) != 0 {
		t.Error("degenerate transfer should be 0")
	}
	if m.DiskTime(1e9, 1) <= m.NetTransferTime(1e9, 1) {
		t.Error("disk should be slower than network for shuffle")
	}
	if m.MemCopyTime(1e9, 1, 2) != 2*m.MemCopyTime(1e9, 1, 1) {
		t.Error("copies not linear")
	}
	if m.Congestion(0, 0) != m.BaseCongestion {
		t.Error("zero machines should give base congestion")
	}
	if m.Congestion(1<<40, 10) > 1 {
		t.Error("congestion above 1")
	}
}

// TestAllocateReleaseProperty: random allocate/release sequences never
// corrupt pool accounting.
func TestAllocateReleaseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(Config{Machines: 1 + r.Intn(8), ExecutorsPerMachine: 1 + r.Intn(8)})
		var held [][]ExecutorID
		for i := 0; i < 60; i++ {
			if r.Intn(2) == 0 {
				got := c.Allocate(1+r.Intn(10), nil)
				if len(got) > 0 {
					held = append(held, got)
				}
			} else if len(held) > 0 {
				k := r.Intn(len(held))
				c.Release(held[k])
				held = append(held[:k], held[k+1:]...)
			}
			busy := 0
			for _, h := range held {
				busy += len(h)
			}
			if c.BusyExecutors() != busy || c.FreeExecutors()+busy != c.NumExecutors() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMachineOfIsArithmetic holds the executor-numbering invariant: an
// executor's machine is its ID divided by the executors per machine.
// Re-admitting a failed machine re-pools exactly the idle executors of its
// range, and a Machine pointer taken before a storm of Allocate and
// Release calls still reads the machine's live state after it.
func TestMachineOfIsArithmetic(t *testing.T) {
	for _, size := range [][2]int{{1, 1}, {4, 3}, {7, 5}} {
		machines, per := size[0], size[1]
		c := New(Config{Machines: machines, ExecutorsPerMachine: per})
		for e := range ExecutorID(c.NumExecutors()) {
			if got, want := c.MachineOf(e), MachineID(int(e)/per); got != want {
				t.Fatalf("%d×%d: MachineOf(%d) = %d, want %d", machines, per, e, got, want)
			}
		}

		// Take every executor, then free the odd ones of the last machine:
		// two before its crash, one while it is down.
		id := MachineID(machines - 1)
		all := c.Allocate(c.NumExecutors(), nil)
		idle := map[ExecutorID]bool{}
		for e := ExecutorID(int(id) * per); e < ExecutorID(int(id+1)*per); e += 2 {
			idle[e] = true
		}
		var late ExecutorID = -1
		for e := range idle {
			if late < 0 {
				late = e
				continue
			}
			c.ReleaseOne(e)
		}
		c.SetHealth(id, Failed)
		c.ReleaseOne(late)
		if c.FreeExecutors() != 0 {
			t.Fatalf("%d×%d: %d executors free while the only idle ones sit on a failed machine", machines, per, c.FreeExecutors())
		}
		c.SetHealth(id, Healthy)
		if c.FreeExecutors() != len(idle) {
			t.Fatalf("%d×%d: re-admission pooled %d executors, want the %d idle ones", machines, per, c.FreeExecutors(), len(idle))
		}
		for _, e := range c.Allocate(len(idle), nil) {
			if !idle[e] {
				t.Errorf("%d×%d: re-admission pooled executor %d, not an idle one of machine %d", machines, per, e, id)
			}
		}
		c.Release(all)

		// A pointer taken before the storm reads the live state after it.
		m := c.Machine(0)
		rng := rand.New(rand.NewSource(int64(machines)))
		var held []ExecutorID
		for range 200 {
			if rng.Intn(2) == 0 {
				held = append(held, c.Allocate(1+rng.Intn(per), []MachineID{0})...)
			} else if len(held) > 0 {
				k := rng.Intn(len(held))
				c.ReleaseOne(held[k])
				held = append(held[:k], held[k+1:]...)
			}
		}
		busy := 0
		for _, e := range held {
			if c.MachineOf(e) == 0 {
				busy++
			}
		}
		if m != c.Machine(0) || m.busy != busy || len(m.freeList) != per-busy {
			t.Errorf("%d×%d: pointer reads busy %d free %d; the machine has %d busy of %d", machines, per, m.busy, len(m.freeList), busy, per)
		}
		c.SetHealth(0, ReadOnly)
		if m.Health != ReadOnly {
			t.Errorf("%d×%d: pointer reads health %v after SetHealth(ReadOnly)", machines, per, m.Health)
		}
	}
}
