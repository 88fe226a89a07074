package flow

import (
	"errors"
	"fmt"
	"testing"

	"swift/internal/core"
	"swift/internal/sim"
)

func snap(free, total, inflight, queue int) core.StateSnapshot {
	return core.StateSnapshot{
		PendingTasks:   inflight,
		SchedQueueLen:  queue,
		FreeExecutors:  free,
		TotalExecutors: total,
	}
}

func item(id string, tasks int) Item { return Item{ID: id, Tasks: tasks, Payload: id} }

// The accept → queue → shed ladder: direct admits while budget and queue
// allow, queueing when the budget is full, shedding once the queue is.
func TestOfferLadder(t *testing.T) {
	f := NewController(Config{MaxInFlightTasks: 10, MaxQueue: 2}, 4)
	idle := snap(4, 4, 0, 0)
	out, err := f.Offer(0, idle, item("a", 8))
	if err != nil || out.Decision != Admitted || out.Level != LevelAccept {
		t.Fatalf("idle offer = %+v, %v", out, err)
	}
	busy := snap(0, 4, 8, 1)
	out, err = f.Offer(1, busy, item("b", 8))
	if err != nil || out.Decision != Queued || out.QueuePos != 1 {
		t.Fatalf("over-budget offer = %+v, %v", out, err)
	}
	out, err = f.Offer(2, busy, item("c", 8))
	if err != nil || out.Decision != Queued || out.QueuePos != 2 {
		t.Fatalf("second queued offer = %+v, %v", out, err)
	}
	out, err = f.Offer(3, busy, item("d", 8))
	if out.Decision != Shed || err == nil {
		t.Fatalf("full-queue offer = %+v, %v", out, err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed error %v is not a typed OverloadError matching ErrOverloaded", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatal("shed rejection carries no retry-after hint")
	}
	if got := f.Stats(); got.Admitted != 1 || got.Queued != 2 || got.Shed != 1 || got.MaxQueue != 2 {
		t.Fatalf("stats = %+v", got)
	}
}

// Arrivals behind a non-empty queue never jump it, even with budget room.
func TestNoQueueJumping(t *testing.T) {
	f := NewController(Config{MaxInFlightTasks: 10, MaxQueue: 4}, 4)
	if out, _ := f.Offer(0, snap(0, 4, 10, 0), item("big", 4)); out.Decision != Queued {
		t.Fatalf("setup: big not queued: %+v", out)
	}
	// Capacity for a small job exists now, but FIFO order wins.
	if out, _ := f.Offer(1, snap(4, 4, 2, 0), item("small", 1)); out.Decision != Queued || out.QueuePos != 2 {
		t.Fatalf("small arrival jumped the queue: %+v", out)
	}
}

// PopAdmissible releases FIFO-ordered work only when it fits the budget.
func TestPopAdmissible(t *testing.T) {
	f := NewController(Config{MaxInFlightTasks: 10, MaxQueue: 4}, 4)
	full := snap(0, 4, 10, 0)
	for i := 0; i < 3; i++ {
		if out, _ := f.Offer(sim.Time(i), full, item(fmt.Sprintf("j%d", i), 4)); out.Decision != Queued {
			t.Fatalf("setup offer %d not queued", i)
		}
	}
	if _, ok := f.PopAdmissible(10, full); ok {
		t.Fatal("pop admitted against a full budget")
	}
	it, ok := f.PopAdmissible(20, snap(2, 4, 6, 0))
	if !ok || it.ID != "j0" {
		t.Fatalf("pop = %+v, %v; want head j0", it, ok)
	}
	it, ok = f.PopAdmissible(30, snap(4, 4, 2, 0))
	if !ok || it.ID != "j1" {
		t.Fatalf("second pop = %+v, %v; want j1", it, ok)
	}
	if f.QueueLen() != 1 {
		t.Fatalf("queue len = %d, want 1", f.QueueLen())
	}
}

// A job larger than the entire budget admits alone instead of parking
// forever (the drain-liveness guarantee).
func TestOversizedJobAdmitsAlone(t *testing.T) {
	f := NewController(Config{MaxInFlightTasks: 8, MaxQueue: 4}, 4)
	if out, _ := f.Offer(0, snap(4, 4, 0, 0), item("huge", 50)); out.Decision != Admitted {
		t.Fatalf("oversized job on idle cluster = %+v, want admitted", out)
	}
	if out, _ := f.Offer(1, snap(0, 4, 50, 0), item("huge2", 50)); out.Decision != Queued {
		t.Fatalf("second oversized job = %+v, want queued", out)
	}
	if _, ok := f.PopAdmissible(2, snap(0, 4, 50, 0)); ok {
		t.Fatal("oversized job popped while another is in flight")
	}
	if it, ok := f.PopAdmissible(3, snap(4, 4, 0, 0)); !ok || it.ID != "huge2" {
		t.Fatalf("oversized job did not admit alone: %+v, %v", it, ok)
	}
}

// The token bucket paces admissions at Rate and congestion throttles the
// refill to zero on a saturated cluster.
func TestTokenGovernorAndCongestion(t *testing.T) {
	f := NewController(Config{MaxInFlightTasks: 1000, MaxQueue: 10, Rate: 2, Burst: 1}, 4)
	idle := snap(4, 4, 0, 0)
	if out, _ := f.Offer(0, idle, item("a", 1)); out.Decision != Admitted {
		t.Fatalf("first offer = %+v", out)
	}
	// Token spent; the immediate next arrival queues at LevelSlow.
	out, _ := f.Offer(1, idle, item("b", 1))
	if out.Decision != Queued || out.Level != LevelSlow {
		t.Fatalf("token-dry offer = %+v, want queued/slow", out)
	}
	// Idle cluster refills at full Rate: after 500ms one token is back.
	if _, ok := f.PopAdmissible(sim.FromSeconds(0.5), idle); !ok {
		t.Fatal("token not refilled on idle cluster after 1/Rate seconds")
	}
	// Saturated cluster with scheduler backlog: congestion ≈ 1, refill ≈ 0.
	if c := Congestion(snap(0, 4, 100, 50)); c < 0.9 {
		t.Fatalf("saturated congestion = %f, want ≈1", c)
	}
	if c := Congestion(snap(4, 4, 0, 0)); c != 0 {
		t.Fatalf("idle congestion = %f, want 0", c)
	}
	f2 := NewController(Config{MaxInFlightTasks: 1000, MaxQueue: 10, Rate: 2, Burst: 1}, 4)
	sat := snap(0, 4, 100, 50)
	if out, _ := f2.Offer(0, sat, item("a", 1)); out.Decision != Admitted {
		t.Fatalf("burst token missing: %+v", out)
	}
	f2.Offer(1, sat, item("b", 1))
	if _, ok := f2.PopAdmissible(sim.FromSeconds(10), sat); ok {
		t.Fatal("tokens refilled on a fully congested cluster")
	}
}

// Drain sheds new offers with ErrDraining but re-admits queued work with
// the governor bypassed.
func TestDrainReadmitsQueuedWork(t *testing.T) {
	f := NewController(Config{MaxInFlightTasks: 100, MaxQueue: 10, Rate: 0.001, Burst: 1}, 4)
	idle := snap(4, 4, 0, 0)
	f.Offer(0, idle, item("a", 1))
	if out, _ := f.Offer(1, idle, item("b", 1)); out.Decision != Queued {
		t.Fatal("setup: b not queued")
	}
	f.Drain()
	if !f.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	out, err := f.Offer(2, idle, item("c", 1))
	if out.Decision != Shed || !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain offer = %+v, %v", out, err)
	}
	// The governor would not refill for ~1000s; drain bypasses it.
	if it, ok := f.PopAdmissible(3, idle); !ok || it.ID != "b" {
		t.Fatalf("queued work not re-admitted during drain: %+v, %v", it, ok)
	}
}

// CancelQueued removes exactly the named submission.
func TestCancelQueued(t *testing.T) {
	f := NewController(Config{MaxInFlightTasks: 1, MaxQueue: 10}, 4)
	busy := snap(0, 4, 1, 0)
	f.Offer(0, busy, item("a", 1))
	f.Offer(1, busy, item("b", 1))
	f.Offer(2, busy, item("c", 1))
	if !f.CancelQueued("b") {
		t.Fatal("cancel of queued submission failed")
	}
	if f.CancelQueued("b") {
		t.Fatal("double cancel succeeded")
	}
	free := snap(4, 4, 0, 0)
	first, _ := f.PopAdmissible(3, free)
	second, _ := f.PopAdmissible(4, free)
	if first.ID != "a" || second.ID != "c" {
		t.Fatalf("queue after cancel = [%s %s], want [a c]", first.ID, second.ID)
	}
}

// Stats counts every decision once, in its tenant's TenantStat: the
// global admitted/queued/shed are the per-tenant sums across a direct
// admit, two queues, a queue-full shed, a cancel, a release from the queue
// and a drain shed.
func TestStatsSumTenantStats(t *testing.T) {
	f := NewController(Config{MaxInFlightTasks: 4, MaxQueue: 2}, 4)
	idle := snap(4, 4, 0, 0)
	busy := snap(0, 4, 4, 0)
	titem := func(id, tenant string) Item { return Item{ID: id, Tenant: tenant, Tasks: 1, Payload: id} }
	want := []Decision{Admitted, Queued, Queued, Shed}
	for i, it := range []Item{titem("a", "x"), titem("b", "y"), titem("c", "x"), titem("d", "y")} {
		sn := busy
		if i == 0 {
			sn = idle
		}
		if out, _ := f.Offer(sim.Time(i), sn, it); out.Decision != want[i] {
			t.Fatalf("offer %s = %v, want %v", it.ID, out.Decision, want[i])
		}
	}
	if !f.CancelQueued("c") {
		t.Fatal("cancel of queued c failed")
	}
	if it, ok := f.PopAdmissible(4, idle); !ok || it.ID != "b" {
		t.Fatalf("release = %v %v, want b", it.ID, ok)
	}
	f.Drain()
	if _, err := f.Offer(5, idle, titem("e", "z")); !errors.Is(err, ErrDraining) {
		t.Fatalf("offer while draining: %v, want ErrDraining", err)
	}
	st := f.Stats()
	if st.Admitted != 2 || st.Queued != 2 || st.Shed != 2 || st.Decisions != 5 || st.QueueLen != 0 || st.MaxQueue != 2 {
		t.Fatalf("stats = %+v, want 2 admitted, 2 queued, 2 shed, 5 decisions, max queue 2", st)
	}
	var sum TenantStat
	for _, ts := range f.TenantStats() {
		sum.Admitted += ts.Admitted
		sum.Queued += ts.Queued
		sum.Shed += ts.Shed
	}
	if sum.Admitted != st.Admitted || sum.Queued != st.Queued || sum.Shed != st.Shed {
		t.Fatalf("tenant sums %+v differ from Stats %+v", sum, st)
	}
}

// Same inputs → byte-identical decision sequence (the determinism the
// chaos soak's trace hash relies on).
func TestDecisionsDeterministic(t *testing.T) {
	run := func() string {
		f := NewController(Config{MaxInFlightTasks: 16, MaxQueue: 4, Rate: 3, Burst: 2}, 8)
		s := ""
		for i := 0; i < 64; i++ {
			sn := snap(i%9, 8, (i*7)%40, i%5)
			out, _ := f.Offer(sim.Time(i)*sim.Second/4, sn, item(fmt.Sprintf("j%d", i), 1+i%12))
			s += out.Decision.String() + "|"
			if i%3 == 0 {
				if it, ok := f.PopAdmissible(sim.Time(i)*sim.Second/4+1, sn); ok {
					s += "pop:" + it.ID + "|"
				}
			}
		}
		return s
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("decision sequence diverged:\n%s\n%s", a, b)
	}
}

// BenchmarkOffer is one admission decision on the accept path: what every
// submission of an unsaturated daemon pays under the service lock before
// core.SubmitJob.
func BenchmarkOffer(b *testing.B) {
	f := NewController(Config{MaxInFlightTasks: 1 << 30, MaxQueue: 64}, 4096)
	sn := snap(2048, 4096, 100, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, _ := f.Offer(sim.Time(i), sn, Item{ID: "j", Tasks: 8})
		if out.Decision != Admitted {
			b.Fatalf("decision = %v", out.Decision)
		}
	}
}

// Tenant budgets bound each listed tenant's in-flight work, and the wait
// queue releases the first admissible entry so a tenant parked at its
// budget cannot head-of-line-block the others.
func TestTenantBudgets(t *testing.T) {
	inflight := map[string]int{}
	f := NewController(Config{MaxInFlightTasks: 100, MaxQueue: 8, TenantBudgets: map[string]int{"a": 4}}, 4)
	f.SetTenantLookup(func(n string) int { return inflight[n] })
	titem := func(id, tenant string, tasks int) Item {
		return Item{ID: id, Tenant: tenant, Tasks: tasks, Payload: id}
	}
	s := snap(4, 4, 0, 0)
	out, err := f.Offer(0, s, titem("a1", "a", 3))
	if err != nil || out.Decision != Admitted {
		t.Fatalf("a1 within budget: %v %v", out.Decision, err)
	}
	inflight["a"] = 3
	if out, _ = f.Offer(0, s, titem("a2", "a", 3)); out.Decision != Queued {
		t.Fatalf("a2 over budget = %v, want queued", out.Decision)
	}
	if out, _ = f.Offer(0, s, titem("b1", "b", 3)); out.Decision != Queued {
		t.Fatalf("b1 behind non-empty queue = %v, want queued", out.Decision)
	}
	// b1 releases past the parked a2.
	it, ok := f.PopAdmissible(0, s)
	if !ok || it.ID != "b1" {
		t.Fatalf("pop = %v %v, want b1", it.ID, ok)
	}
	if _, ok := f.PopAdmissible(0, s); ok {
		t.Fatal("a2 released while tenant a is at budget")
	}
	inflight["a"] = 0
	if it, ok = f.PopAdmissible(0, s); !ok || it.ID != "a2" {
		t.Fatalf("pop after a freed = %v %v, want a2", it.ID, ok)
	}
}

// A tenant with nothing in flight admits one job larger than its whole
// budget — the per-tenant mirror of the global oversized-alone rule.
func TestTenantOversizedAdmitsAlone(t *testing.T) {
	inflight := map[string]int{}
	f := NewController(Config{MaxInFlightTasks: 100, MaxQueue: 8, TenantBudgets: map[string]int{"a": 2}}, 4)
	f.SetTenantLookup(func(n string) int { return inflight[n] })
	s := snap(4, 4, 0, 0)
	out, _ := f.Offer(0, s, Item{ID: "big", Tenant: "a", Tasks: 10})
	if out.Decision != Admitted {
		t.Fatalf("idle tenant oversized job = %v, want admitted", out.Decision)
	}
	inflight["a"] = 10
	if out, _ = f.Offer(0, s, Item{ID: "next", Tenant: "a", Tasks: 1}); out.Decision != Queued {
		t.Fatalf("busy tenant = %v, want queued", out.Decision)
	}
}

// TenantStats: per-tenant counters, sorted, empty tenant under the
// default name, budget column from config.
func TestTenantStats(t *testing.T) {
	f := NewController(Config{MaxInFlightTasks: 4, MaxQueue: 1, TenantBudgets: map[string]int{"zeta": 7}}, 4)
	s := snap(4, 4, 3, 0)                                  // 3 tasks already in flight
	f.Offer(0, s, Item{ID: "d1", Tasks: 1})                // default tenant, admitted
	f.Offer(0, s, Item{ID: "b1", Tenant: "b", Tasks: 100}) // over global budget, queued
	f.Offer(0, s, Item{ID: "b2", Tenant: "b", Tasks: 1})   // queue full, shed
	ts := f.TenantStats()
	if len(ts) != 3 {
		t.Fatalf("tenants = %d (%v), want 3", len(ts), ts)
	}
	if ts[0].Tenant != "b" || ts[1].Tenant != "default" || ts[2].Tenant != "zeta" {
		t.Fatalf("order = %s,%s,%s", ts[0].Tenant, ts[1].Tenant, ts[2].Tenant)
	}
	if ts[1].Admitted != 1 || ts[0].Queued != 1 || ts[0].Shed != 1 || ts[0].QueueLen != 1 {
		t.Fatalf("stats = %+v", ts)
	}
	if ts[2].Budget != 7 {
		t.Fatalf("zeta budget = %d, want 7", ts[2].Budget)
	}
}

// Every way an item leaves the wait queue zeroes its slot, so the
// queue's backing array pins no released payload: head pops (through a
// compaction and the reset to empty), pops past a head parked at its
// tenant budget, and cancels.
func TestReleasedSlotsHoldNoPayload(t *testing.T) {
	const n = 300
	inflight := map[string]int{}
	f := NewController(Config{MaxInFlightTasks: 1000, MaxQueue: n, TenantBudgets: map[string]int{"a": 1}}, 4)
	f.SetTenantLookup(func(tenant string) int { return inflight[tenant] })
	full := snap(0, 4, 1000, 0)
	for i := 0; i < n; i++ {
		tenant := "b"
		if i%3 == 0 {
			tenant = "a"
		}
		it := Item{ID: fmt.Sprintf("j%d", i), Tenant: tenant, Tasks: 1, Payload: &i}
		if out, _ := f.Offer(0, full, it); out.Decision != Queued {
			t.Fatalf("setup offer %d = %v, want queued", i, out.Decision)
		}
	}
	f.Drain() // bypass the token governor
	room := snap(4, 4, 0, 0)
	pop := func(want string) {
		t.Helper()
		if it, ok := f.PopAdmissible(0, room); !ok || it.ID != want {
			t.Fatalf("pop = %q %v, want %s", it.ID, ok, want)
		}
	}
	// Head pops: the 150th compacts the live half to the front.
	for i := 0; i < n/2; i++ {
		pop(fmt.Sprintf("j%d", i))
	}
	// Tenant a is at budget, so its j150 stays parked at the head and the
	// next b items release past it.
	inflight["a"] = 1
	pop("j151")
	pop("j152")
	pop("j154")
	for _, id := range []string{"j155", "j200", "j299"} {
		if !f.CancelQueued(id) {
			t.Fatalf("cancel %s found nothing", id)
		}
	}
	// The rest pops from the head until the queue resets to empty.
	inflight["a"] = 0
	for f.QueueLen() > 0 {
		if _, ok := f.PopAdmissible(0, room); !ok {
			t.Fatalf("pop refused with %d queued", f.QueueLen())
		}
	}
	for i, it := range f.queue[:cap(f.queue)] {
		if it.Payload != nil {
			t.Errorf("released slot %d of %d still holds %s", i, cap(f.queue), it.ID)
		}
	}
}
