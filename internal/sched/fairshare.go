package sched

import "math"

// QueueSpec declares one tenant's queue: Weight is its share relative to
// the other queues (<= 0 means 1), Quota a hard executor cap (0 =
// unlimited).
type QueueSpec struct {
	Name   string
	Weight float64
	Quota  int
}

// FairShareConfig configures a FairShare policy. Tenants that show up at
// runtime without a QueueSpec get a queue of weight 1 and no quota, so the
// config only needs to name the tenants it wants to differentiate.
type FairShareConfig struct {
	Queues []QueueSpec
}

// FairShare is a weighted fair-share policy in the proportion-plugin
// mold: Proportion water-fills cluster capacity across the tenant queues,
// JobOrder serves the most-under-served tenant first under
// floor(deserved) budgets, and Preempt reclaims one whole graphlet per
// round from the most-over-share tenant when queued work is starving.
type FairShare struct {
	cfg FairShareConfig
}

// NewFairShare builds the policy; the zero config is an equal-weight share
// over whatever tenants appear.
func NewFairShare(cfg FairShareConfig) *FairShare { return &FairShare{cfg: cfg} }

// Name implements Policy.
func (f *FairShare) Name() string { return "fairshare" }

// rounding epsilon: deserved shares come out of float division, so a
// tenant deserving "exactly 4" may read 3.9999…; floor/ceil snap first.
const shareEps = 1e-9

func floorShare(x float64) int { return int(math.Floor(x + shareEps)) }
func ceilShare(x float64) int  { return int(math.Ceil(x - shareEps)) }

// smallRound is how many queues (declared + live tenants) or tenants a
// round handles on stack arrays; past it the scratch comes from the heap.
// FairShare itself carries no scratch: a policy is a pure function of its
// inputs, so one value can serve any number of controllers.
const smallRound = 8

// sized returns buf[:n] when the caller's stack array covers n and a heap
// slice otherwise.
func sized[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// fsQueue is one queue during a single water-fill. The slice is rebuilt
// per call from the static config plus the live view; nothing is cached,
// so the policy stays a pure function of its inputs.
type fsQueue struct {
	weight   float64
	quota    int
	tenant   int     // index into view.Tenants, -1 for a declared queue with no live tenant
	cap      float64 // quota-clamped demand
	deserved float64
	filled   bool // took its whole cap; out of the water-fill
}

// Proportion implements Policy: deserved shares per tenant, sorted by
// tenant name — shares[i] is view.Tenants[i]'s. The queues are the declared
// ones in declaration order, then the view's undeclared tenants in view
// order (sorted by name — the controller's contract — so the float sums
// below are deterministic). Capacity water-fills across them: each round
// offers every open queue its weighted slice of what remains; a queue whose
// slice covers its cap (demand, clamped to its quota — which is what makes
// quotas hard) takes the cap and leaves, and the capacity it could not
// absorb is re-offered to the rest. A round that fills nobody hands out the
// slices and ends.
func (f *FairShare) Proportion(view View) []Share {
	if len(view.Tenants) == 0 {
		return nil
	}
	return f.proportion(view, make([]Share, len(view.Tenants)))
}

// proportion is Proportion into the caller's shares, one slot per view
// tenant: JobOrder and Preempt hand it a stack array.
func (f *FairShare) proportion(view View, shares []Share) []Share {
	var buf [smallRound]fsQueue
	qs := sized(buf[:], len(f.cfg.Queues)+len(view.Tenants))[:len(f.cfg.Queues)]
	for i, spec := range f.cfg.Queues {
		qs[i] = fsQueue{weight: 1, quota: max(spec.Quota, 0), tenant: -1}
		if spec.Weight > 0 {
			qs[i].weight = spec.Weight
		}
	}
	for ti := range view.Tenants {
		t := &view.Tenants[ti]
		qi := 0
		for qi < len(f.cfg.Queues) && f.cfg.Queues[qi].Name != t.Tenant {
			qi++
		}
		if qi == len(f.cfg.Queues) {
			qi = len(qs)
			qs = append(qs, fsQueue{weight: 1})
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
	for i := range qs {
		if q := &qs[i]; q.tenant >= 0 {
			t := &view.Tenants[q.tenant]
			shares[q.tenant] = Share{Tenant: t.Tenant, Weight: q.weight,
				Deserved: q.deserved, Running: t.Running, Quota: q.quota}
		}
	}
	return shares
}

// shareRatio orders tenants most-under-served first: running over
// deserved, with zero-deserved tenants sorting last when they hold
// executors and first when they hold nothing.
func shareRatio(s Share) float64 {
	if s.Deserved <= shareEps {
		if s.Running > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return float64(s.Running) / s.Deserved
}

// hasLaunchable reports whether the tenant has a queued item with pending
// tasks. It leans on TenantUsage.Queued's contract to answer most calls
// without looking at the queue, and stops at the first match otherwise.
func hasLaunchable(items []Item, t *TenantUsage) bool {
	if t.Queued == 0 {
		return false
	}
	for i := range items {
		if items[i].Pending > 0 && items[i].Tenant == t.Tenant {
			return true
		}
	}
	return false
}

// tenantBudget is one tenant's serve plan for a round. room is how many
// more slots the stranded-capacity top-up may still give it: up to its
// demand, never past its quota.
type tenantBudget struct {
	name   string
	budget int
	room   int
	queued int
	ratio  float64
}

// JobOrder implements Policy. Each tenant gets a budget of
// floor(deserved) - running task slots (never past its quota), tenants
// are served most-under-served first, and within a tenant items keep
// queue order. Fractional floors can strand free executors, so leftover
// free capacity tops budgets back up round-robin across tenants that
// still have demand — hard quotas excepted, the plan is work-conserving.
//
// A round costs O(tenants) plus the queue prefix it walks to place each
// budgeted tenant's grants: no map, no allocation but the returned plan.
func (f *FairShare) JobOrder(items []Item, view View) []Grant {
	n := len(view.Tenants)
	if n == 0 {
		return nil
	}
	var sbuf [smallRound]Share
	var obuf [smallRound]tenantBudget
	shares := f.proportion(view, sized(sbuf[:], n))
	order := sized(obuf[:], n)
	sum := 0
	for i := range shares {
		s, t := &shares[i], &view.Tenants[i]
		b := max(floorShare(s.Deserved)-s.Running, 0)
		if s.Quota > 0 && b > s.Quota-s.Running {
			b = max(s.Quota-s.Running, 0)
		}
		// Liveness floor: a tenant with queued work and nothing running
		// always rates one slot, so rounding can never starve it outright.
		if b == 0 && s.Running == 0 && hasLaunchable(items, t) {
			b = 1
		}
		room := t.Pending - b
		if s.Quota > 0 {
			room = min(room, s.Quota-s.Running-b)
		}
		order[i] = tenantBudget{name: s.Tenant, budget: b, room: room,
			queued: t.Queued, ratio: shareRatio(*s)}
		sum += b
	}
	topUp(order, view.FreeExecutors-sum)
	// Stable insertion sort, most under-served first: a handful of tenants,
	// usually already in order.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && underServed(&order[j], &order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	count := placeGrants(order, items, nil)
	if count == 0 {
		return []Grant{} // a plan that serves nothing, not the nil "no opinion"
	}
	grants := make([]Grant, count)
	placeGrants(order, items, grants)
	return grants
}

// topUp hands extra slots (capacity floor rounding stranded) round-robin in
// tenant order, demand- and quota-guarded: one slot per eligible tenant per
// lap until the slots or the room run out. Whole laps are dealt at once — k
// laps while every eligible tenant has room for k and k full laps remain —
// so the cost is O(tenants²) however large the idle pool is; the last,
// partial lap goes slot by slot.
func topUp(order []tenantBudget, extra int) {
	for extra > 0 {
		eligible, laps := 0, extra
		for i := range order {
			if r := order[i].room; r > 0 {
				eligible++
				laps = min(laps, r)
			}
		}
		if eligible == 0 {
			return
		}
		// At least one: when extra < eligible this is the partial lap, which
		// runs extra out and ends the loop.
		laps = max(min(laps, extra/eligible), 1)
		for i := range order {
			if tb := &order[i]; tb.room > 0 {
				give := min(laps, extra)
				tb.budget += give
				tb.room -= give
				extra -= give
			}
		}
	}
}

// underServed is the serve order: lower running/deserved ratio first,
// tenant name breaking ties.
func underServed(a, b *tenantBudget) bool {
	if a.ratio != b.ratio {
		return a.ratio < b.ratio
	}
	return a.name < b.name
}

// placeGrants walks the serve plan — tenants in order, each tenant's
// launchable items in queue order until its budget is spent — and returns
// how many grants it makes, writing them to out when out is non-nil. A
// tenant with no budget or nothing queued is skipped before the queue is
// touched.
func placeGrants(order []tenantBudget, items []Item, out []Grant) int {
	n := 0
	for i := range order {
		tb := &order[i]
		rem := tb.budget
		if rem <= 0 || tb.queued == 0 {
			continue
		}
		for j := range items {
			it := &items[j]
			if it.Pending <= 0 || it.Tenant != tb.name {
				continue
			}
			if out != nil {
				out[n] = Grant{Index: it.Index, Cap: rem}
			}
			n++
			rem -= min(it.Pending, rem)
			if rem <= 0 {
				break
			}
		}
	}
	return n
}

// Preempt implements Policy: when some tenant with queued work sits below
// its floor(deserved) share (or at zero) with quota headroom, reclaim one
// whole graphlet from the tenant furthest above its ceil(deserved) share.
// The eligible victim gang must leave its owner at or above ceil(deserved)
// after the reclaim — that asymmetric floor/ceil band is what stops
// preemption ping-pong: a tenant granted the liveness floor is never
// itself over-ceil, and a victim is never cut below what it deserves.
// Among eligible gangs the smallest goes first (cheapest reclaim), newest
// job breaking ties, so long-running work is disturbed last.
func (f *FairShare) Preempt(items []Item, gangs []Gang, view View) []Victim {
	n := len(view.Tenants)
	if n == 0 {
		return nil
	}
	var sbuf [smallRound]Share
	shares := f.proportion(view, sized(sbuf[:], n))
	starved := false
	for i := range shares {
		s := &shares[i]
		if s.Quota > 0 && s.Running >= s.Quota {
			continue
		}
		if (s.Running == 0 || floorShare(s.Deserved)-s.Running > 0) && hasLaunchable(items, &view.Tenants[i]) {
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

// gangLess orders candidate victim gangs: fewest running tasks first,
// then newest job (highest admission seq), then job id and graphlet for a
// total deterministic order.
func gangLess(a, b *Gang) bool {
	if a.Running != b.Running {
		return a.Running < b.Running
	}
	if a.Seq != b.Seq {
		return a.Seq > b.Seq
	}
	if a.Job != b.Job {
		return a.Job < b.Job
	}
	return a.Graphlet < b.Graphlet
}
