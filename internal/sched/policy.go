// Package sched is the controller's pluggable scheduling policy layer.
// core.Controller owns the mechanism — queue bookkeeping, executor leases,
// gang launch, recovery — and delegates three decisions to a Policy, the
// plugin shape KAI-Scheduler and kube-arbitrator use for their
// proportion / job-order / preempt plugins:
//
//   - JobOrder: in which order, and with what per-item executor caps, the
//     queued graphlet requests are served this round;
//   - Proportion: how much of the cluster each tenant deserves right now
//     (weighted share with hard quotas);
//   - Preempt: which running graphlet, if any, to reclaim when the pool is
//     dry and an under-served tenant is starving.
//
// A policy value is immutable and may be shared by any number of
// controllers at once. Its answers are pure functions of the inputs it is
// handed: no clock, no randomness and no state that changes
// answer-for-equal-inputs, so scheduling stays deterministic and
// replayable. A policy that implements Rounder hands each controller a
// round of its own, which may keep state between that controller's calls
// — a water-fill to reuse, a grant buffer — so long as no answer changes.
// The package must not import core (core imports it); everything a policy
// sees is flattened into the plain structs below.
package sched

// Item is one queued graphlet resource request as a policy sees it. Index
// names the request's entry in the controller's queue (echoed back in
// Grant): its position counted from the first entry the queue ever held,
// so entries keep their Index while the queue drops a served prefix. Seq
// is the owning job's admission sequence number, the FIFO tiebreak. Pending is zero for requests whose job already left the live
// set — policies may grant or skip them, the controller discards them
// either way when it processes the grant.
type Item struct {
	Index    int
	Job      string
	Tenant   string
	Graphlet int
	Pending  int
	Seq      int
}

// Gang is one graphlet currently holding executors — the unit of
// preemption. Running counts its placed tasks.
type Gang struct {
	Job      string
	Tenant   string
	Graphlet int
	Running  int
	Seq      int
}

// TenantUsage is one tenant's point-in-time resource footprint: running
// and pending task counts over its live jobs, plus how many of its
// graphlet requests wait in the scheduler queue.
//
// Queued is never less than the number of the tenant's items with
// Pending > 0 in the same round (it may be more: stale entries count until
// the controller retires them). FairShare leans on exactly that — a tenant
// with Queued == 0 has nothing launchable, so the queue is not scanned for
// it — and core.CheckInvariants recounts it.
type TenantUsage struct {
	Tenant  string
	Running int
	Pending int
	Queued  int
}

// View is the cluster/tenant state a policy decides against. Tenants is
// sorted by tenant name (the controller guarantees it), so policies can
// iterate it directly without re-sorting.
type View struct {
	TotalExecutors int
	FreeExecutors  int
	Tenants        []TenantUsage
}

// Grant instructs the controller to serve the queue entry at Index,
// launching at most Cap of its pending tasks this round (Cap <= 0 means
// uncapped). Grants are processed in order until the pool runs dry.
type Grant struct {
	Index int
	Cap   int
}

// Share is one tenant's deserved allocation as computed by Proportion.
// Deserved is in executors (fractional: water-filling splits idle share);
// Quota echoes the tenant's hard cap (0 = none).
type Share struct {
	Tenant   string
	Weight   float64
	Deserved float64
	Running  int
	Quota    int
}

// Victim names a whole graphlet to reclaim: every running task of the
// graphlet is aborted and re-pended, and the graphlet re-queues.
type Victim struct {
	Job      string
	Graphlet int
	Tenant   string
}

// Policy is the pluggable decision surface. Implementations must be
// deterministic: equal inputs produce equal outputs, and any internal
// map-keyed state is iterated collect-then-sort.
//
// The items, gangs and View.Tenants slices a method receives are views
// into the controller's own scratch, rebuilt or patched in place for the
// next scheduling round. A policy reads them during the call and must neither
// retain nor modify them; anything it wants to keep, it copies. Returned
// slices are the policy's to allocate and the controller's to read until
// its next call.
type Policy interface {
	// Name identifies the policy in status output and experiment reports.
	Name() string
	// JobOrder returns the serve plan for one scheduling round. A nil
	// result means "serve every item in queue order, uncapped" — the FIFO
	// answer, which the controller runs in the same loop as a plan, except
	// that a waiting gang unit ends it.
	JobOrder(items []Item, view View) []Grant
	// Proportion computes per-tenant deserved shares, sorted by tenant
	// name. A nil result means the policy does not differentiate tenants.
	Proportion(view View) []Share
	// Preempt nominates at most a handful of whole-graphlet victims when
	// the pool is dry and queued work is starving. A nil result means no
	// preemption; the controller re-serves the queue after each reclaim
	// and asks again, so returning a single victim per call is enough.
	Preempt(items []Item, gangs []Gang, view View) []Victim
}

// Rounder is implemented by a policy value that can hand a controller a
// round of its own: a Policy that answers every call exactly as the value
// would, and may keep what it computed for one call to answer the next
// one cheaper. core.NewController asks for a round when its policy
// implements Rounder. A round serves one controller; it is not safe for
// concurrent use, while the value it came from stays shareable.
type Rounder interface {
	Policy
	NewRound() Policy
}
