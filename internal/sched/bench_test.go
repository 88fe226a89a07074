package sched

import (
	"fmt"
	"testing"

	"swift/internal/raceflag"
)

// replayFairShare is replay_fair's policy: three tenants at 2:1:1, one
// with a quota.
func replayFairShare() *FairShare {
	return NewFairShare(FairShareConfig{Queues: []QueueSpec{
		{Name: "a", Weight: 2}, {Name: "b", Weight: 1}, {Name: "c", Weight: 1, Quota: 600}}})
}

// fairRound returns one policy round of a saturated replay_fair over three
// tenants, 300 queued requests and 300 running ten-task gangs on a
// 3,000-executor pool, as a function that runs it and fails on an empty
// answer. It asks each question of the pool a controller asks it of:
// JobOrder when completions have freed a handful of executors and the
// tenants hold about their shares (a 1,600, b 800, c its quota of 600), so
// the plan is a grant or two, as on replay_fair's saturated rounds;
// Preempt when the pool is dry and b has burst one gang past its share.
func fairRound(p Policy) func(tb testing.TB) {
	tenants := []string{"a", "b", "b", "c"} // b submits twice as often
	items := make([]Item, 300)
	usage := map[string]TenantUsage{}
	for i := range items {
		tenant := tenants[i%len(tenants)]
		items[i] = Item{Index: i, Job: fmt.Sprintf("q%d", i), Tenant: tenant, Pending: 5 + i%40, Seq: 300 + i}
		u := usage[tenant]
		u.Tenant = tenant
		u.Pending += items[i].Pending
		u.Queued++
		usage[tenant] = u
	}
	gangs := make([]Gang, 0, 300)
	for _, t := range []struct {
		tenant string
		gangs  int
	}{{"a", 159}, {"b", 81}, {"c", 60}} {
		for range t.gangs {
			gangs = append(gangs, Gang{Job: fmt.Sprintf("r%d", len(gangs)), Tenant: t.tenant, Running: 10, Seq: len(gangs)})
		}
	}
	view := func(free int, running ...int) View {
		v := View{TotalExecutors: 3000, FreeExecutors: free}
		for i, tenant := range []string{"a", "b", "c"} {
			u := usage[tenant]
			u.Running = running[i]
			v.Tenants = append(v.Tenants, u)
		}
		return v
	}
	serve := view(2, 1599, 799, 600)
	dry := view(0, 1590, 810, 600)
	return func(tb testing.TB) {
		if g := p.JobOrder(items, serve); len(g) == 0 {
			tb.Fatal("no grants")
		}
		if v := p.Preempt(items, gangs, dry); len(v) == 0 {
			tb.Fatal("no victim")
		}
	}
}

func benchFairRound(b *testing.B, p Policy) {
	round := fairRound(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(b)
	}
}

// BenchmarkFairShareRound is the round through the FairShare value's
// methods, which water-fill afresh on every call.
func BenchmarkFairShareRound(b *testing.B) { benchFairRound(b, replayFairShare()) }

// BenchmarkFairShareControllerRound is the same round through the round a
// controller gets from NewRound. Neither view changes between calls, and
// the kept water-fill answers both, so every call after the first reuses
// it: this is the cost of a round whose shares did not move, most of
// replay_fair's.
func BenchmarkFairShareControllerRound(b *testing.B) {
	benchFairRound(b, replayFairShare().NewRound())
}

// maxFairRoundAllocs is the committed allocation budget of one JobOrder +
// Preempt round at three tenants through the FairShare value: the grant
// slice and the victim slice, with one to spare for a shares slice. A
// per-round map, budget record or queue-sized buffer would blow it.
const maxFairRoundAllocs = 3

// maxControllerRoundAllocs is the same round's budget through a
// controller's round, which reuses its grant buffer and returns its
// victim from a buffer of its own.
const maxControllerRoundAllocs = 0

func TestFairShareRoundAllocs(t *testing.T) {
	checkFairRoundAllocs(t, replayFairShare(), maxFairRoundAllocs)
}

func TestFairShareControllerRoundAllocs(t *testing.T) {
	checkFairRoundAllocs(t, replayFairShare().NewRound(), maxControllerRoundAllocs)
}

func checkFairRoundAllocs(t *testing.T, p Policy, budget int) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	round := fairRound(p)
	if allocs := testing.AllocsPerRun(1000, func() { round(t) }); allocs > float64(budget) {
		t.Errorf("JobOrder+Preempt: %.0f allocs per round, budget %d", allocs, budget)
	}
}

// BenchmarkFairShareRoundIdlePool is JobOrder against a replay_scale-sized
// pool (140,040 executors) that reports itself idle while one un-quota'd
// tenant, already at its share, still has 100,000 tasks pending: all the
// free capacity is stranded and the top-up hands it out. A controller's
// view never reads like this (its free count and its tenants' running
// counts move together), which is why one-slot-per-lap top-up went
// unnoticed; dealt in whole laps the round costs microseconds at any pool
// size.
func BenchmarkFairShareRoundIdlePool(b *testing.B) {
	p := NewFairShare(FairShareConfig{})
	items := []Item{
		{Index: 0, Job: "big", Tenant: "a", Pending: 100000},
		{Index: 1, Job: "small", Tenant: "b", Pending: 50, Seq: 1},
	}
	view := View{TotalExecutors: 140040, FreeExecutors: 140040, Tenants: []TenantUsage{
		{Tenant: "a", Running: 100000, Pending: 100000, Queued: 1},
		{Tenant: "b", Running: 40040, Pending: 50, Queued: 1}}}
	want := []Grant{{Index: 1, Cap: 50}, {Index: 0, Cap: 100000}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := p.JobOrder(items, view)
		if len(g) != 2 || g[0] != want[0] || g[1] != want[1] {
			b.Fatalf("grants = %+v, want %+v", g, want)
		}
	}
}
