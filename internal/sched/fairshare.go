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
//
// A FairShare is an immutable config value that any number of controllers
// may share. Each controller asks it for a round of its own (NewRound),
// which keeps its last water-fill and its grant buffer between calls; the
// FairShare methods run the same code on a round they throw away.
type FairShare struct {
	cfg FairShareConfig
}

// NewFairShare builds the policy; the zero config is an equal-weight share
// over whatever tenants appear.
func NewFairShare(cfg FairShareConfig) *FairShare { return &FairShare{cfg: cfg} }

// Name implements Policy.
func (f *FairShare) Name() string { return "fairshare" }

// NewRound implements Rounder: a round of the policy for one controller.
func (f *FairShare) NewRound() Policy { return &round{f: f} }

// rounding epsilon: deserved shares come out of float division, so a
// tenant deserving "exactly 4" may read 3.9999…; floor/ceil snap first.
const shareEps = 1e-9

func floorShare(x float64) int { return int(math.Floor(x + shareEps)) }
func ceilShare(x float64) int  { return int(math.Ceil(x - shareEps)) }

// smallRound is how many queues (declared + live tenants) or tenants a
// thrown-away round handles on stack arrays; past it the scratch comes
// from the heap.
const smallRound = 8

// fsQueue is one queue of a water-fill.
type fsQueue struct {
	name     string // the live tenant's name, "" for a declared queue with no live tenant
	weight   float64
	quota    int
	cap      float64 // quota-clamped demand
	deserved float64
	filled   bool // took its whole cap; out of the water-fill
}

// capFor is the queue's cap for live tenant t: its demand, clamped to the
// queue's quota.
func (q *fsQueue) capFor(t *TenantUsage) float64 {
	c := float64(t.Running + t.Pending)
	if q.quota > 0 && c > float64(q.quota) {
		c = float64(q.quota)
	}
	return c
}

// round is one caller's fair-share round: the water-fill it ran last, kept
// while it still answers the next view, and the scratch each call reuses.
// A controller keeps the round NewRound gives it; the FairShare methods
// run the same bodies on a round whose scratch is on their stack
// (stackRound), so a pure call allocates only what it returns. Beyond the
// queues' names, the scratch holds no pointers: a round writes none on
// the calls that reuse its fill.
type round struct {
	f *FairShare
	// qs is the last water-fill, of a view of total executors whose tenant
	// i has queue qs[qOf[i]]. kept says it may be reused: it ended with
	// every queue filled, or in a step that filled nobody. unit is the
	// largest slice per unit of weight any of its steps offered. fills
	// counts the water-fills run; a call that reuses the kept one adds none.
	qs    []fsQueue
	qOf   []int
	total int
	unit  float64
	kept  bool
	fills int

	order  []tenantBudget
	grants []Grant
	victim [1]Victim
}

// Name implements Policy.
func (r *round) Name() string { return r.f.Name() }

// JobOrder implements Policy, as FairShare.JobOrder, into the grant
// buffer the round reuses: the caller reads the plan until its next call.
func (r *round) JobOrder(items []Item, view View) []Grant {
	r.grants = r.jobOrder(items, view, r.grants[:0])
	return r.grants
}

// Preempt implements Policy, as FairShare.Preempt, into the round's own
// one-victim buffer.
func (r *round) Preempt(items []Item, gangs []Gang, view View) []Victim {
	v, ok := r.preempt(items, gangs, view)
	if !ok {
		return nil
	}
	r.victim[0] = v
	return r.victim[:]
}

// stackRound is the scratch of a round a FairShare method throws away.
type stackRound struct {
	qs    [smallRound]fsQueue
	qOf   [smallRound]int
	order [smallRound]tenantBudget
}

func (s *stackRound) round(f *FairShare) round {
	return round{f: f, qs: s.qs[:0], qOf: s.qOf[:0], order: s.order[:0]}
}

// Proportion implements Policy: deserved shares per tenant, sorted by
// tenant name — shares[i] is view.Tenants[i]'s. The queues are the declared
// ones in declaration order, then the view's undeclared tenants in view
// order (sorted by name — the controller's contract — so the float sums
// below are deterministic). Capacity water-fills across them: each step
// offers every open queue its weighted slice of what remains; a queue whose
// slice covers its cap (demand, clamped to its quota — which is what makes
// quotas hard) takes the cap and leaves, and the capacity it could not
// absorb is re-offered to the rest. A step that fills nobody hands out the
// slices and ends.
func (f *FairShare) Proportion(view View) []Share {
	var s stackRound
	r := s.round(f)
	return r.Proportion(view)
}

// Proportion implements Policy, as FairShare.Proportion.
func (r *round) Proportion(view View) []Share {
	if len(view.Tenants) == 0 {
		return nil
	}
	r.fill(view)
	shares := make([]Share, len(view.Tenants))
	for i := range shares {
		shares[i] = r.share(view, i)
	}
	return shares
}

// share is view tenant i's share in the water-fill r.qs holds.
func (r *round) share(view View, i int) Share {
	q, t := &r.qs[r.qOf[i]], &view.Tenants[i]
	return Share{Tenant: t.Tenant, Weight: q.weight, Deserved: q.deserved, Running: t.Running, Quota: q.quota}
}

// fill leaves the water-fill of view in r.qs: the kept one when it still
// answers view (reusable), a fresh one otherwise. Only a fill that ended
// with every queue filled or in a step that filled nobody is kept; one
// that ran the capacity out with queues still open is not.
func (r *round) fill(view View) {
	if r.reusable(view) {
		return
	}
	r.fills++
	cfg, n := r.f.cfg.Queues, len(view.Tenants)
	if need := len(cfg) + n; cap(r.qs) < need {
		r.qs = make([]fsQueue, need)
	}
	if cap(r.qOf) < n {
		r.qOf = make([]int, n)
	}
	r.qs = r.qs[:cap(r.qs)]
	r.qOf = r.qOf[:n]
	qs := r.qs
	for i, spec := range cfg {
		qs[i] = fsQueue{weight: 1, quota: max(spec.Quota, 0)}
		if spec.Weight > 0 {
			qs[i].weight = spec.Weight
		}
	}
	nq := len(cfg)
	for ti := range view.Tenants {
		t := &view.Tenants[ti]
		qi := 0
		for qi < len(cfg) && cfg[qi].Name != t.Tenant {
			qi++
		}
		if qi == len(cfg) {
			qi = nq
			qs[nq] = fsQueue{weight: 1}
			nq++
		}
		q := &qs[qi]
		q.name, q.cap = t.Tenant, q.capFor(t)
		r.qOf[ti] = qi
	}
	r.qs = r.qs[:nq]
	qs = qs[:nq]
	demand := 0.0
	for i := range qs {
		demand += qs[i].cap
	}
	remaining := min(float64(view.TotalExecutors), demand)
	r.total, r.unit, r.kept = view.TotalExecutors, 0, false
	open := len(qs)
	for open > 0 && remaining > shareEps {
		totalW := 0.0
		for i := range qs {
			if !qs[i].filled {
				totalW += qs[i].weight
			}
		}
		unit := remaining / totalW
		r.unit = max(r.unit, unit)
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
			r.kept = true
			break
		}
	}
	r.kept = r.kept || open == 0
}

// reusable reports whether the kept water-fill answers view: the same
// capacity, the same tenants in the same order, every filled queue at the
// same cap, and every open queue's cap still out of reach of the largest
// slice the fill offered (unit·weight < cap − shareEps). Then a refill
// would start from the same capacity (the open queues keep demand at or
// above it), offer the same slice at each step, fill the same queues, and
// end at the same unit: the kept shares, bit for bit. A declared queue
// with no live tenant has cap 0, which the first step of every kept fill
// filled, so only the tenants' queues are checked.
func (r *round) reusable(view View) bool {
	if !r.kept || view.TotalExecutors != r.total || len(view.Tenants) != len(r.qOf) {
		return false
	}
	for i := range view.Tenants {
		t, q := &view.Tenants[i], &r.qs[r.qOf[i]]
		if t.Tenant != q.name {
			return false
		}
		c := q.capFor(t)
		if q.filled && c != q.cap || !q.filled && r.unit*q.weight >= c-shareEps {
			return false
		}
	}
	return true
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

// tenantBudget is one tenant's serve plan for a round: view tenant
// tenant's. room is how many more slots the stranded-capacity top-up may
// still give it: up to its demand, never past its quota.
type tenantBudget struct {
	tenant int
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
	var s stackRound
	r := s.round(f)
	return r.jobOrder(items, view, nil)
}

// jobOrder is JobOrder into grants, which it reuses when it is large
// enough for the plan.
func (r *round) jobOrder(items []Item, view View, grants []Grant) []Grant {
	n := len(view.Tenants)
	if n == 0 {
		return nil
	}
	r.fill(view)
	if cap(r.order) < n {
		r.order = make([]tenantBudget, n)
	}
	r.order = r.order[:n]
	order := r.order
	sum := 0
	for i := range view.Tenants {
		s, t := r.share(view, i), &view.Tenants[i]
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
		order[i] = tenantBudget{tenant: i, budget: b, room: room, queued: t.Queued, ratio: shareRatio(s)}
		sum += b
	}
	topUp(order, view.FreeExecutors-sum)
	// Stable insertion sort, most under-served first: a handful of tenants,
	// usually already in order.
	planned := 0
	for i := range order {
		for j := i; j > 0 && underServed(&order[j], &order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
		planned += min(order[i].budget, order[i].queued)
	}
	// Each grant serves one of its tenant's launchable items, of which
	// there are at most Queued, and spends at least one slot of the
	// tenant's budget: that bounds the plan. A plan that serves nothing is
	// empty, not the nil "no opinion".
	if grants == nil || cap(grants) < planned {
		grants = make([]Grant, 0, planned)
	}
	return placeGrants(order, items, view.Tenants, grants[:0])
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
// tenant name breaking ties — the view's tenants are sorted by name, so
// their indexes are in name order.
func underServed(a, b *tenantBudget) bool {
	if a.ratio != b.ratio {
		return a.ratio < b.ratio
	}
	return a.tenant < b.tenant
}

// placeGrants walks the serve plan — tenants in order, each tenant's
// launchable items in queue order until its budget is spent — appending a
// grant to out for each item it serves. A tenant with no budget or nothing
// queued is skipped before the queue is touched.
func placeGrants(order []tenantBudget, items []Item, tenants []TenantUsage, out []Grant) []Grant {
	for i := range order {
		tb := &order[i]
		rem := tb.budget
		if rem <= 0 || tb.queued == 0 {
			continue
		}
		name := tenants[tb.tenant].Tenant
		for j := range items {
			it := &items[j]
			if it.Pending <= 0 || it.Tenant != name {
				continue
			}
			out = append(out, Grant{Index: it.Index, Cap: rem})
			rem -= min(it.Pending, rem)
			if rem <= 0 {
				break
			}
		}
	}
	return out
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
	var s stackRound
	r := s.round(f)
	if v, ok := r.preempt(items, gangs, view); ok {
		return []Victim{v}
	}
	return nil
}

// preempt is Preempt's victim, if there is one.
func (r *round) preempt(items []Item, gangs []Gang, view View) (Victim, bool) {
	n := len(view.Tenants)
	if n == 0 {
		return Victim{}, false
	}
	r.fill(view)
	starved := false
	for i := 0; i < n && !starved; i++ {
		s := r.share(view, i)
		if s.Quota > 0 && s.Running >= s.Quota {
			continue
		}
		starved = (s.Running == 0 || floorShare(s.Deserved)-s.Running > 0) && hasLaunchable(items, &view.Tenants[i])
	}
	if !starved {
		return Victim{}, false
	}
	var victim Share
	surplus := 0
	for i := 0; i < n; i++ {
		s := r.share(view, i)
		sp := s.Running - ceilShare(s.Deserved)
		if sp <= 0 {
			continue
		}
		if surplus == 0 || sp > surplus || (sp == surplus && s.Tenant < victim.Tenant) {
			victim, surplus = s, sp
		}
	}
	if surplus == 0 {
		return Victim{}, false
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
		return Victim{}, false
	}
	return Victim{Job: best.Job, Graphlet: best.Graphlet, Tenant: best.Tenant}, true
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
