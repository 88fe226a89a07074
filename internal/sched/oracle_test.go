package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// The fair-share policy as it was before its rounds were made map- and
// allocation-free: the reference FairShare is checked against. No production
// code runs it; it lives here, in package sched's test files, written the
// obvious way on purpose — a hasItem map per round, a budget record per
// tenant, the stranded-capacity top-up one slot per lap, a reflective sort.

type oracleFairShare struct {
	cfg FairShareConfig
}

// oracleQueue is one queue during the oracle's water-fill.
type oracleQueue struct {
	weight   float64
	quota    int
	tenant   int     // index into view.Tenants, -1 for a declared queue with no live tenant
	cap      float64 // quota-clamped demand
	deserved float64
	filled   bool // took its whole cap; out of the water-fill
}

// Proportion is the oracle water-fill: deserved shares per tenant, sorted by
// tenant name. The queues are the declared ones in declaration order, then
// the view's undeclared tenants in view order (sorted by name — the
// controller's contract — so the float sums below are deterministic).
// Capacity water-fills across them: each round offers every open queue its
// weighted slice of what remains; a queue whose slice covers its cap
// (demand, clamped to its quota — which is what makes quotas hard) takes
// the cap and leaves, and the capacity it could not absorb is re-offered
// to the rest. A round that fills nobody hands out the slices and ends.
func (f *oracleFairShare) Proportion(view View) []Share {
	if len(view.Tenants) == 0 {
		return nil
	}
	qs := make([]oracleQueue, len(f.cfg.Queues), len(f.cfg.Queues)+len(view.Tenants))
	for i, spec := range f.cfg.Queues {
		qs[i] = oracleQueue{weight: 1, quota: max(spec.Quota, 0), tenant: -1}
		if spec.Weight > 0 {
			qs[i].weight = spec.Weight
		}
	}
	for ti, t := range view.Tenants {
		qi := slices.IndexFunc(f.cfg.Queues, func(spec QueueSpec) bool { return spec.Name == t.Tenant })
		if qi < 0 {
			qi = len(qs)
			qs = append(qs, oracleQueue{weight: 1})
		}
		q := &qs[qi]
		q.tenant = ti
		q.cap = float64(t.Running + t.Pending)
		if q.quota > 0 && q.cap > float64(q.quota) {
			q.cap = float64(q.quota)
		}
	}
	demand := 0.0
	for i := range qs {
		demand += qs[i].cap
	}
	remaining := min(float64(view.TotalExecutors), demand)
	for open := len(qs); open > 0 && remaining > shareEps; {
		totalW := 0.0
		for i := range qs {
			if !qs[i].filled {
				totalW += qs[i].weight
			}
		}
		unit := remaining / totalW
		filledAny := false
		for i := range qs {
			if q := &qs[i]; !q.filled && unit*q.weight >= q.cap-shareEps {
				q.deserved, q.filled = q.cap, true
				remaining -= q.cap
				open--
				filledAny = true
			}
		}
		if !filledAny {
			for i := range qs {
				if q := &qs[i]; !q.filled {
					q.deserved = unit * q.weight
				}
			}
			break
		}
	}
	shares := make([]Share, len(view.Tenants))
	for _, q := range qs {
		if q.tenant >= 0 {
			t := view.Tenants[q.tenant]
			shares[q.tenant] = Share{Tenant: t.Tenant, Weight: q.weight,
				Deserved: q.deserved, Running: t.Running, Quota: q.quota}
		}
	}
	return shares
}

// oracleBudget is one tenant's serve plan for a round.
type oracleBudget struct {
	name    string
	budget  int
	pending int
	running int
	quota   int
	ratio   float64
}

// JobOrder is the oracle serve plan. Each tenant gets a budget of
// floor(deserved) - running task slots (never past its quota), tenants
// are served most-under-served first, and within a tenant items keep
// queue order. Fractional floors can strand free executors, so leftover
// free capacity tops budgets back up round-robin across tenants that
// still have demand — hard quotas excepted, the plan is work-conserving.
func (f *oracleFairShare) JobOrder(items []Item, view View) []Grant {
	shares := f.Proportion(view)
	if len(shares) == 0 {
		return nil
	}
	hasItem := make(map[string]bool, len(shares))
	for _, it := range items {
		if it.Pending > 0 {
			hasItem[it.Tenant] = true
		}
	}
	order := make([]*oracleBudget, 0, len(shares))
	sum := 0
	for i := range shares {
		s := shares[i]
		b := floorShare(s.Deserved) - s.Running
		if b < 0 {
			b = 0
		}
		if s.Quota > 0 && b > s.Quota-s.Running {
			b = s.Quota - s.Running
			if b < 0 {
				b = 0
			}
		}
		// Liveness floor: a tenant with queued work and nothing running
		// always rates one slot, so rounding can never starve it outright.
		if b == 0 && s.Running == 0 && hasItem[s.Tenant] && (s.Quota == 0 || s.Quota >= 1) {
			b = 1
		}
		tb := &oracleBudget{name: s.Tenant, budget: b, running: s.Running,
			quota: s.Quota, ratio: shareRatio(s)}
		order = append(order, tb)
		sum += b
	}
	for _, t := range view.Tenants {
		for _, tb := range order {
			if tb.name == t.Tenant {
				tb.pending = t.Pending
			}
		}
	}
	// Top up stranded capacity (floor rounding) one slot at a time, most
	// under-served tenant first, demand- and quota-guarded.
	for extra := view.FreeExecutors - sum; extra > 0; {
		progress := false
		for _, tb := range order {
			if extra == 0 {
				break
			}
			if tb.budget >= tb.pending {
				continue
			}
			if tb.quota > 0 && tb.running+tb.budget >= tb.quota {
				continue
			}
			tb.budget++
			extra--
			progress = true
		}
		if !progress {
			break
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].ratio != order[j].ratio {
			return order[i].ratio < order[j].ratio
		}
		return order[i].name < order[j].name
	})
	grants := make([]Grant, 0, len(items))
	for _, tb := range order {
		rem := tb.budget
		if rem <= 0 {
			continue
		}
		for _, it := range items {
			if it.Tenant != tb.name || it.Pending <= 0 {
				continue
			}
			grants = append(grants, Grant{Index: it.Index, Cap: rem})
			take := it.Pending
			if take > rem {
				take = rem
			}
			rem -= take
			if rem <= 0 {
				break
			}
		}
	}
	return grants
}

// Preempt is the oracle victim choice: when some tenant with queued work sits below
// its floor(deserved) share (or at zero) with quota headroom, reclaim one
// whole graphlet from the tenant furthest above its ceil(deserved) share.
// The eligible victim gang must leave its owner at or above ceil(deserved)
// after the reclaim — that asymmetric floor/ceil band is what stops
// preemption ping-pong: a tenant granted the liveness floor is never
// itself over-ceil, and a victim is never cut below what it deserves.
// Among eligible gangs the smallest goes first (cheapest reclaim), newest
// job breaking ties, so long-running work is disturbed last.
func (f *oracleFairShare) Preempt(items []Item, gangs []Gang, view View) []Victim {
	shares := f.Proportion(view)
	if len(shares) == 0 {
		return nil
	}
	hasItem := make(map[string]bool, len(shares))
	for _, it := range items {
		if it.Pending > 0 {
			hasItem[it.Tenant] = true
		}
	}
	starved := false
	for _, s := range shares {
		if !hasItem[s.Tenant] {
			continue
		}
		if s.Quota > 0 && s.Running >= s.Quota {
			continue
		}
		if s.Running == 0 || floorShare(s.Deserved)-s.Running > 0 {
			starved = true
			break
		}
	}
	if !starved {
		return nil
	}
	var victim *Share
	surplus := 0
	for i := range shares {
		s := &shares[i]
		sp := s.Running - ceilShare(s.Deserved)
		if sp <= 0 {
			continue
		}
		if victim == nil || sp > surplus || (sp == surplus && s.Tenant < victim.Tenant) {
			victim, surplus = s, sp
		}
	}
	if victim == nil {
		return nil
	}
	keep := ceilShare(victim.Deserved)
	var best *Gang
	for i := range gangs {
		g := &gangs[i]
		if g.Tenant != victim.Tenant || g.Running <= 0 {
			continue
		}
		if victim.Running-g.Running < keep {
			continue
		}
		if best == nil || gangLess(g, best) {
			best = g
		}
	}
	if best == nil {
		return nil
	}
	return []Victim{{Job: best.Job, Graphlet: best.Graphlet, Tenant: best.Tenant}}
}

// oracleView draws one random round: 1–12 tenants (declared and undeclared,
// some declared queues idle), quotas, zero-weight specs, dry and wet pools,
// items with nothing pending, tenants whose every item is stale, and Queued
// at or above the tenant's launchable item count — the one promise
// TenantUsage.Queued makes and the fast path leans on.
func oracleView(rng *rand.Rand) (FairShareConfig, []Item, []Gang, View) {
	names := []string{"a", "b", "c", "d", "default", "e", "f", "g", "h", "i", "j", "k", "l", "m"}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	var cfg FairShareConfig
	for _, name := range names[:rng.Intn(7)] {
		spec := QueueSpec{Name: name}
		switch rng.Intn(4) {
		case 0: // zero weight: reads as 1
		case 1:
			spec.Weight = float64(1 + rng.Intn(4))
		case 2:
			spec.Weight = 0.5 + rng.Float64()*3
		case 3:
			spec.Weight = -1
		}
		if rng.Intn(3) == 0 {
			spec.Quota = rng.Intn(40)
		}
		cfg.Queues = append(cfg.Queues, spec)
	}
	// Live tenants: a random subset of all names, so some are declared,
	// some are not, and some declared queues have no live tenant.
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	live := slices.Clone(names[:1+rng.Intn(12)])
	sort.Strings(live)
	view := View{TotalExecutors: 1 + rng.Intn(120), Tenants: make([]TenantUsage, len(live))}
	var items []Item
	var gangs []Gang
	running := 0
	for ti, name := range live {
		u := TenantUsage{Tenant: name}
		stale := rng.Intn(5) == 0 // every item of this tenant has nothing pending
		for k := rng.Intn(5); k > 0; k-- {
			it := Item{Job: fmt.Sprintf("%s-q%d", name, k), Tenant: name, Graphlet: rng.Intn(3), Seq: rng.Intn(100)}
			if !stale && rng.Intn(4) != 0 {
				it.Pending = 1 + rng.Intn(30)
			}
			u.Pending += it.Pending
			u.Queued++
			items = append(items, it)
		}
		u.Queued += rng.Intn(2) * rng.Intn(3) // entries the view counts that carry nothing launchable
		u.Pending += rng.Intn(2) * rng.Intn(20)
		for k := rng.Intn(4); k > 0; k-- {
			g := Gang{Job: fmt.Sprintf("%s-r%d", name, k), Tenant: name, Graphlet: rng.Intn(3), Running: rng.Intn(12), Seq: rng.Intn(100)}
			u.Running += g.Running
			gangs = append(gangs, g)
		}
		running += u.Running
		view.Tenants[ti] = u
	}
	// Queue order interleaves tenants; a dead job's entry carries no tenant.
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	if rng.Intn(4) == 0 {
		items = append(items, Item{Job: "dead"})
	}
	for i := range items {
		items[i].Index = i
	}
	switch rng.Intn(3) {
	case 0: // dry
	case 1: // what a consistent pool would report
		view.FreeExecutors = max(view.TotalExecutors-running, 0)
	case 2: // free capacity running ahead of the tenants' footprint: the top-up's long laps
		view.FreeExecutors = rng.Intn(400)
	}
	return cfg, items, gangs, view
}

// TestFairShareMatchesOracle pins the map-free, allocation-free rounds to
// the implementation they replaced, answer for answer.
func TestFairShareMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	grants, victims := 0, 0
	for round := 0; round < 4000; round++ {
		cfg, items, gangs, view := oracleView(rng)
		p, o := NewFairShare(cfg), &oracleFairShare{cfg: cfg}
		if got, want := p.Proportion(view), o.Proportion(view); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d Proportion:\n got  %+v\n want %+v\n cfg %+v\n view %+v", round, got, want, cfg, view)
		}
		got, want := p.JobOrder(items, view), o.JobOrder(items, view)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d JobOrder:\n got  %+v\n want %+v\n cfg %+v\n view %+v\n items %+v", round, got, want, cfg, view, items)
		}
		grants += len(got)
		gotV, wantV := p.Preempt(items, gangs, view), o.Preempt(items, gangs, view)
		if !reflect.DeepEqual(gotV, wantV) {
			t.Fatalf("round %d Preempt:\n got  %+v\n want %+v\n cfg %+v\n view %+v\n items %+v\n gangs %+v", round, gotV, wantV, cfg, view, items, gangs)
		}
		victims += len(gotV)
	}
	if grants < 4000 || victims < 400 {
		t.Fatalf("generator too tame: %d grants and %d victims over 4000 rounds", grants, victims)
	}
}
