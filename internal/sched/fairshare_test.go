package sched

import (
	"math"
	"reflect"
	"testing"
)

func usage(name string, running, pending, queued int) TenantUsage {
	return TenantUsage{Tenant: name, Running: running, Pending: pending, Queued: queued}
}

func deservedOf(t *testing.T, shares []Share, tenant string) float64 {
	t.Helper()
	for _, s := range shares {
		if s.Tenant == tenant {
			return s.Deserved
		}
	}
	t.Fatalf("no share for tenant %q in %+v", tenant, shares)
	return 0
}

func TestFIFOReturnsNil(t *testing.T) {
	p := FIFO{}
	if p.Name() != "fifo" {
		t.Fatalf("name = %q", p.Name())
	}
	view := View{TotalExecutors: 4, FreeExecutors: 4,
		Tenants: []TenantUsage{usage("a", 0, 3, 1)}}
	items := []Item{{Index: 0, Job: "j", Tenant: "a", Pending: 3}}
	if g := p.JobOrder(items, view); g != nil {
		t.Fatalf("JobOrder = %v, want nil", g)
	}
	if s := p.Proportion(view); s != nil {
		t.Fatalf("Proportion = %v, want nil", s)
	}
	if v := p.Preempt(items, nil, view); v != nil {
		t.Fatalf("Preempt = %v, want nil", v)
	}
}

func TestProportionEqualWeights(t *testing.T) {
	p := NewFairShare(FairShareConfig{})
	view := View{TotalExecutors: 10, FreeExecutors: 0, Tenants: []TenantUsage{
		usage("a", 5, 20, 2), usage("b", 5, 20, 2)}}
	shares := p.Proportion(view)
	if got := deservedOf(t, shares, "a"); math.Abs(got-5) > 1e-6 {
		t.Fatalf("a deserved = %v, want 5", got)
	}
	if got := deservedOf(t, shares, "b"); math.Abs(got-5) > 1e-6 {
		t.Fatalf("b deserved = %v, want 5", got)
	}
}

func TestProportionWeighted(t *testing.T) {
	p := NewFairShare(FairShareConfig{Queues: []QueueSpec{
		{Name: "a", Weight: 2}, {Name: "b", Weight: 1}}})
	view := View{TotalExecutors: 9, Tenants: []TenantUsage{
		usage("a", 0, 100, 1), usage("b", 0, 100, 1)}}
	shares := p.Proportion(view)
	if got := deservedOf(t, shares, "a"); math.Abs(got-6) > 1e-6 {
		t.Fatalf("a deserved = %v, want 6", got)
	}
	if got := deservedOf(t, shares, "b"); math.Abs(got-3) > 1e-6 {
		t.Fatalf("b deserved = %v, want 3", got)
	}
}

func TestProportionBorrowsIdleShare(t *testing.T) {
	p := NewFairShare(FairShareConfig{})
	view := View{TotalExecutors: 10, Tenants: []TenantUsage{
		usage("a", 1, 1, 0), usage("b", 2, 40, 3)}}
	shares := p.Proportion(view)
	// a's demand caps at 2; b water-fills the rest of the cluster.
	if got := deservedOf(t, shares, "a"); math.Abs(got-2) > 1e-6 {
		t.Fatalf("a deserved = %v, want 2", got)
	}
	if got := deservedOf(t, shares, "b"); math.Abs(got-8) > 1e-6 {
		t.Fatalf("b deserved = %v, want 8", got)
	}
}

func TestProportionHardQuota(t *testing.T) {
	p := NewFairShare(FairShareConfig{Queues: []QueueSpec{
		{Name: "b", Quota: 4}}})
	view := View{TotalExecutors: 10, Tenants: []TenantUsage{
		usage("a", 0, 100, 1), usage("b", 0, 100, 1)}}
	shares := p.Proportion(view)
	if got := deservedOf(t, shares, "b"); math.Abs(got-4) > 1e-6 {
		t.Fatalf("b deserved = %v, want quota-capped 4", got)
	}
	// Borrowing hands b's stranded share to a, but never past b's quota.
	if got := deservedOf(t, shares, "a"); math.Abs(got-6) > 1e-6 {
		t.Fatalf("a deserved = %v, want 6", got)
	}
}

// TestProportionPinnedShares pins the water-fill's shares on the three
// configurations that run: bench's 2:1:1 with a 600-executor quota, the
// chaos soak's 2:1:1 with a 30-executor quota, and the zero config over
// undeclared tenants. The expected values are literals printed by the
// queue-tree implementation this one replaced (shortest round-trip
// formatting) and are compared exactly: the replacement performs the same
// float operations in the same order.
func TestProportionPinnedShares(t *testing.T) {
	weights := func(quota int) FairShareConfig {
		return FairShareConfig{Queues: []QueueSpec{
			{Name: "a", Weight: 2}, {Name: "b", Weight: 1}, {Name: "c", Weight: 1, Quota: quota}}}
	}
	bench, chaos := weights(600), weights(30)
	cases := []struct {
		name string
		cfg  FairShareConfig
		view View
		want []Share
	}{
		{"bench saturated", bench,
			View{TotalExecutors: 3000, Tenants: []TenantUsage{
				usage("a", 1400, 5000, 9), usage("b", 1000, 9000, 9), usage("c", 600, 4000, 9)}},
			[]Share{
				{Tenant: "a", Weight: 2, Deserved: 1600, Running: 1400},
				{Tenant: "b", Weight: 1, Deserved: 800, Running: 1000},
				{Tenant: "c", Weight: 1, Deserved: 600, Running: 600, Quota: 600}}},
		{"bench with undeclared tenants", bench,
			View{TotalExecutors: 3001, Tenants: []TenantUsage{
				usage("a", 0, 5000, 9), usage("b", 0, 9000, 9), usage("c", 0, 4000, 9),
				usage("d", 3, 4000, 1), usage("default", 0, 77, 1)}},
			[]Share{
				{Tenant: "a", Weight: 2, Deserved: 1169.6},
				{Tenant: "b", Weight: 1, Deserved: 584.8},
				{Tenant: "c", Weight: 1, Deserved: 584.8, Quota: 600},
				{Tenant: "d", Weight: 1, Deserved: 584.8, Running: 3},
				{Tenant: "default", Weight: 1, Deserved: 77}}},
		{"bench with a declared queue idle", bench,
			View{TotalExecutors: 3000, Tenants: []TenantUsage{
				usage("a", 0, 5000, 9), usage("c", 0, 4000, 9)}},
			[]Share{
				{Tenant: "a", Weight: 2, Deserved: 2400},
				{Tenant: "c", Weight: 1, Deserved: 600, Quota: 600}}},
		{"chaos two rounds", chaos,
			View{TotalExecutors: 80, Tenants: []TenantUsage{
				usage("a", 10, 50, 2), usage("b", 7, 3, 1), usage("c", 20, 100, 3)}},
			[]Share{
				{Tenant: "a", Weight: 2, Deserved: 46.666666666666664, Running: 10},
				{Tenant: "b", Weight: 1, Deserved: 10, Running: 7},
				{Tenant: "c", Weight: 1, Deserved: 23.333333333333332, Running: 20, Quota: 30}}},
		{"chaos quota-bound", chaos,
			View{TotalExecutors: 80, Tenants: []TenantUsage{
				usage("a", 10, 12, 2), usage("b", 7, 300, 1), usage("c", 30, 100, 3)}},
			[]Share{
				{Tenant: "a", Weight: 2, Deserved: 22, Running: 10},
				{Tenant: "b", Weight: 1, Deserved: 29, Running: 7},
				{Tenant: "c", Weight: 1, Deserved: 29, Running: 30, Quota: 30}}},
		{"zero config", FairShareConfig{},
			View{TotalExecutors: 11, Tenants: []TenantUsage{
				usage("p", 0, 100, 1), usage("q", 4, 100, 1), usage("r", 0, 100, 1)}},
			[]Share{
				{Tenant: "p", Weight: 1, Deserved: 3.6666666666666665},
				{Tenant: "q", Weight: 1, Deserved: 3.6666666666666665, Running: 4},
				{Tenant: "r", Weight: 1, Deserved: 3.6666666666666665}}},
		{"zero config saturating", FairShareConfig{},
			View{TotalExecutors: 10, Tenants: []TenantUsage{
				usage("x", 1, 1, 0), usage("y", 2, 40, 3), usage("z", 0, 3, 1), usage("zz", 0, 0, 0)}},
			[]Share{
				{Tenant: "x", Weight: 1, Deserved: 2, Running: 1},
				{Tenant: "y", Weight: 1, Deserved: 5, Running: 2},
				{Tenant: "z", Weight: 1, Deserved: 3},
				{Tenant: "zz", Weight: 1}}},
	}
	for _, c := range cases {
		if got := NewFairShare(c.cfg).Proportion(c.view); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got  %+v\n want %+v", c.name, got, c.want)
		}
	}
}

func TestJobOrderBudgetsAndOrder(t *testing.T) {
	p := NewFairShare(FairShareConfig{})
	// a is over its share (6 running of 5 deserved), b under (0 of 5).
	view := View{TotalExecutors: 10, FreeExecutors: 4, Tenants: []TenantUsage{
		usage("a", 6, 10, 1), usage("b", 0, 10, 2)}}
	items := []Item{
		{Index: 0, Job: "a1", Tenant: "a", Pending: 10, Seq: 1},
		{Index: 1, Job: "b1", Tenant: "b", Pending: 3, Seq: 2},
		{Index: 2, Job: "b2", Tenant: "b", Pending: 7, Seq: 3},
	}
	grants := p.JobOrder(items, view)
	if len(grants) == 0 {
		t.Fatal("no grants")
	}
	// b is most under-served: its items come first, in queue order.
	if grants[0].Index != 1 {
		t.Fatalf("first grant index = %d, want 1 (tenant b, queue order)", grants[0].Index)
	}
	for _, g := range grants {
		if g.Index == 0 {
			t.Fatalf("over-share tenant a granted: %+v", grants)
		}
	}
	// The plan is work-conserving: b's grants cover all 4 free executors.
	if grants[0].Cap < 4 {
		t.Fatalf("b cap = %d, want >= 4 (free pool covered)", grants[0].Cap)
	}
}

func TestJobOrderLivenessFloor(t *testing.T) {
	p := NewFairShare(FairShareConfig{Queues: []QueueSpec{
		{Name: "a", Weight: 100}, {Name: "b", Weight: 1}}})
	// b deserves well under 1 executor but has queued work and nothing
	// running: it still rates one slot.
	view := View{TotalExecutors: 4, FreeExecutors: 1, Tenants: []TenantUsage{
		usage("a", 3, 50, 1), usage("b", 0, 5, 1)}}
	items := []Item{
		{Index: 0, Job: "a1", Tenant: "a", Pending: 50, Seq: 1},
		{Index: 1, Job: "b1", Tenant: "b", Pending: 5, Seq: 2},
	}
	grants := p.JobOrder(items, view)
	found := false
	for _, g := range grants {
		if g.Index == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("liveness floor missing: grants = %+v", grants)
	}
}

func TestJobOrderQuotaBlocksGrants(t *testing.T) {
	p := NewFairShare(FairShareConfig{Queues: []QueueSpec{{Name: "a", Quota: 2}}})
	view := View{TotalExecutors: 10, FreeExecutors: 8, Tenants: []TenantUsage{
		usage("a", 2, 10, 1)}}
	items := []Item{{Index: 0, Job: "a1", Tenant: "a", Pending: 10, Seq: 1}}
	if grants := p.JobOrder(items, view); len(grants) != 0 {
		t.Fatalf("tenant at quota still granted: %+v", grants)
	}
}

func TestPreemptReclaimsFromMostOverShare(t *testing.T) {
	p := NewFairShare(FairShareConfig{})
	// a holds the whole cluster; b starves with queued work.
	view := View{TotalExecutors: 8, FreeExecutors: 0, Tenants: []TenantUsage{
		usage("a", 8, 0, 0), usage("b", 0, 4, 1)}}
	items := []Item{{Index: 0, Job: "b1", Tenant: "b", Pending: 4, Seq: 9}}
	gangs := []Gang{
		{Job: "a1", Tenant: "a", Graphlet: 0, Running: 5, Seq: 1},
		{Job: "a2", Tenant: "a", Graphlet: 0, Running: 3, Seq: 2},
	}
	victims := p.Preempt(items, gangs, view)
	if len(victims) != 1 {
		t.Fatalf("victims = %+v, want exactly one", victims)
	}
	// a deserves ceil(4) = 4, keeps 8-3 = 5 >= 4 after losing the smaller
	// gang; the 5-task gang would also be eligible but the smaller wins.
	want := Victim{Job: "a2", Graphlet: 0, Tenant: "a"}
	if victims[0] != want {
		t.Fatalf("victim = %+v, want %+v", victims[0], want)
	}
}

func TestPreemptKeepsVictimAtDeservedShare(t *testing.T) {
	p := NewFairShare(FairShareConfig{})
	// a holds everything in one gang: reclaiming it would cut a below its
	// deserved share, so nothing is eligible.
	view := View{TotalExecutors: 8, FreeExecutors: 0, Tenants: []TenantUsage{
		usage("a", 8, 0, 0), usage("b", 0, 4, 1)}}
	items := []Item{{Index: 0, Job: "b1", Tenant: "b", Pending: 4, Seq: 9}}
	gangs := []Gang{{Job: "a1", Tenant: "a", Graphlet: 0, Running: 8, Seq: 1}}
	if v := p.Preempt(items, gangs, view); v != nil {
		t.Fatalf("victims = %+v, want nil (reclaim would undercut victim)", v)
	}
}

func TestPreemptNoStarvationNoVictim(t *testing.T) {
	p := NewFairShare(FairShareConfig{})
	view := View{TotalExecutors: 8, FreeExecutors: 0, Tenants: []TenantUsage{
		usage("a", 4, 2, 1), usage("b", 4, 2, 1)}}
	items := []Item{
		{Index: 0, Job: "a1", Tenant: "a", Pending: 2, Seq: 1},
		{Index: 1, Job: "b1", Tenant: "b", Pending: 2, Seq: 2},
	}
	gangs := []Gang{
		{Job: "a0", Tenant: "a", Graphlet: 0, Running: 4, Seq: 0},
		{Job: "b0", Tenant: "b", Graphlet: 0, Running: 4, Seq: 0},
	}
	if v := p.Preempt(items, gangs, view); v != nil {
		t.Fatalf("victims = %+v, want nil (both tenants at share)", v)
	}
}

func TestPreemptFloorCeilBandStopsPingPong(t *testing.T) {
	p := NewFairShare(FairShareConfig{Queues: []QueueSpec{
		{Name: "a", Weight: 100}, {Name: "b", Weight: 1}}})
	// b got the liveness floor (1 running, deserved < 1): it must never be
	// picked as a victim, because running - ceil(deserved) = 0.
	view := View{TotalExecutors: 4, FreeExecutors: 0, Tenants: []TenantUsage{
		usage("a", 3, 50, 1), usage("b", 1, 5, 1)}}
	items := []Item{
		{Index: 0, Job: "a1", Tenant: "a", Pending: 50, Seq: 1},
		{Index: 1, Job: "b1", Tenant: "b", Pending: 5, Seq: 2},
	}
	gangs := []Gang{
		{Job: "a0", Tenant: "a", Graphlet: 0, Running: 3, Seq: 0},
		{Job: "b1", Tenant: "b", Graphlet: 0, Running: 1, Seq: 2},
	}
	for _, v := range p.Preempt(items, gangs, view) {
		if v.Tenant == "b" {
			t.Fatalf("floor-granted tenant b victimized: %+v", v)
		}
	}
}

func TestPolicyDeterminism(t *testing.T) {
	p := NewFairShare(FairShareConfig{Queues: []QueueSpec{
		{Name: "a", Weight: 2, Quota: 6}, {Name: "b"}, {Name: "c", Weight: 3}}})
	view := View{TotalExecutors: 12, FreeExecutors: 3, Tenants: []TenantUsage{
		usage("a", 4, 9, 2), usage("b", 3, 1, 1), usage("c", 2, 7, 2)}}
	items := []Item{
		{Index: 0, Job: "a1", Tenant: "a", Pending: 9, Seq: 1},
		{Index: 1, Job: "b1", Tenant: "b", Pending: 1, Seq: 2},
		{Index: 2, Job: "c1", Tenant: "c", Pending: 7, Seq: 3},
	}
	gangs := []Gang{
		{Job: "a0", Tenant: "a", Graphlet: 0, Running: 4, Seq: 0},
		{Job: "b0", Tenant: "b", Graphlet: 0, Running: 3, Seq: 0},
		{Job: "c0", Tenant: "c", Graphlet: 1, Running: 2, Seq: 0},
	}
	g1, g2 := p.JobOrder(items, view), p.JobOrder(items, view)
	if !reflect.DeepEqual(g1, g2) {
		t.Fatalf("JobOrder not deterministic: %+v vs %+v", g1, g2)
	}
	s1, s2 := p.Proportion(view), p.Proportion(view)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("Proportion not deterministic: %+v vs %+v", s1, s2)
	}
	v1, v2 := p.Preempt(items, gangs, view), p.Preempt(items, gangs, view)
	if !reflect.DeepEqual(v1, v2) {
		t.Fatalf("Preempt not deterministic: %+v vs %+v", v1, v2)
	}
	for i := 1; i < len(s1); i++ {
		if s1[i-1].Tenant >= s1[i].Tenant {
			t.Fatalf("shares not sorted by tenant: %+v", s1)
		}
	}
}
