package sched

import (
	"math"
	"slices"
	"sort"
)

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

// fsQueue is one queue during a single Proportion evaluation. The slice is
// rebuilt per call from the static config plus the live view; nothing is
// cached, so the policy stays a pure function of its inputs.
type fsQueue struct {
	weight   float64
	quota    int
	tenant   int     // index into view.Tenants, -1 for a declared queue with no live tenant
	cap      float64 // quota-clamped demand
	deserved float64
	filled   bool // took its whole cap; out of the water-fill
}

// Proportion implements Policy: deserved shares per tenant, sorted by
// tenant name. The queues are the declared ones in declaration order, then
// the view's undeclared tenants in view order (sorted by name — the
// controller's contract — so the float sums below are deterministic).
// Capacity water-fills across them: each round offers every open queue its
// weighted slice of what remains; a queue whose slice covers its cap
// (demand, clamped to its quota — which is what makes quotas hard) takes
// the cap and leaves, and the capacity it could not absorb is re-offered
// to the rest. A round that fills nobody hands out the slices and ends.
func (f *FairShare) Proportion(view View) []Share {
	if len(view.Tenants) == 0 {
		return nil
	}
	qs := make([]fsQueue, len(f.cfg.Queues), len(f.cfg.Queues)+len(view.Tenants))
	for i, spec := range f.cfg.Queues {
		qs[i] = fsQueue{weight: 1, quota: max(spec.Quota, 0), tenant: -1}
		if spec.Weight > 0 {
			qs[i].weight = spec.Weight
		}
	}
	for ti, t := range view.Tenants {
		qi := slices.IndexFunc(f.cfg.Queues, func(spec QueueSpec) bool { return spec.Name == t.Tenant })
		if qi < 0 {
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

// tenantBudget is one tenant's serve plan for a round.
type tenantBudget struct {
	name    string
	budget  int
	pending int
	running int
	quota   int
	ratio   float64
}

// JobOrder implements Policy. Each tenant gets a budget of
// floor(deserved) - running task slots (never past its quota), tenants
// are served most-under-served first, and within a tenant items keep
// queue order. Fractional floors can strand free executors, so leftover
// free capacity tops budgets back up round-robin across tenants that
// still have demand — hard quotas excepted, the plan is work-conserving.
func (f *FairShare) JobOrder(items []Item, view View) []Grant {
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
	order := make([]*tenantBudget, 0, len(shares))
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
		tb := &tenantBudget{name: s.Tenant, budget: b, running: s.Running,
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
