package sched

import (
	"fmt"
	"testing"
)

// BenchmarkFairShareRound is one policy round of a saturated replay_fair:
// JobOrder then Preempt over three tenants at 2:1:1 with one quota, 300
// queued requests and 300 running gangs on a dry 3,000-executor pool, b
// bursting past its share.
func BenchmarkFairShareRound(b *testing.B) {
	p := NewFairShare(FairShareConfig{Queues: []QueueSpec{
		{Name: "a", Weight: 2}, {Name: "b", Weight: 1}, {Name: "c", Weight: 1, Quota: 600}}})
	tenants := []string{"a", "b", "b", "c"} // b submits twice as often
	items := make([]Item, 300)
	gangs := make([]Gang, 300)
	usage := map[string]*TenantUsage{"a": {Tenant: "a"}, "b": {Tenant: "b"}, "c": {Tenant: "c"}}
	for i := range items {
		tenant := tenants[i%len(tenants)]
		items[i] = Item{Index: i, Job: fmt.Sprintf("q%d", i), Tenant: tenant, Pending: 5 + i%40, Seq: 300 + i}
		gangs[i] = Gang{Job: fmt.Sprintf("r%d", i), Tenant: tenant, Running: 10, Seq: i}
		u := usage[tenant]
		u.Pending += items[i].Pending
		u.Queued++
		u.Running += gangs[i].Running
	}
	view := View{TotalExecutors: 3000, Tenants: []TenantUsage{*usage["a"], *usage["b"], *usage["c"]}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := p.JobOrder(items, view); len(g) == 0 {
			b.Fatal("no grants")
		}
		if v := p.Preempt(items, gangs, view); len(v) == 0 {
			b.Fatal("no victim")
		}
	}
}
