package core

import (
	"slices"
	"sort"

	"swift/internal/dag"
	"swift/internal/sched"
)

// DefaultTenant is the tenant label assigned to jobs submitted without
// one, so every job belongs to exactly one tenant and single-tenant
// deployments never see an empty name in status output.
const DefaultTenant = "default"

// TenantName normalizes a job's tenant label.
func TenantName(job *dag.Job) string {
	if job == nil || job.Tenant == "" {
		return DefaultTenant
	}
	return job.Tenant
}

// TenantCounts is one tenant's live aggregate state, maintained O(delta),
// summed by Snapshot and cross-checked against a full recount by
// CheckInvariants. Pending, Running and Queued are the tenant's entry in
// the kept usage view; the rest is its tenantState.
type TenantCounts struct {
	Tenant  string
	Jobs    int // live jobs (admitted, not yet completed or failed)
	Pending int // pending tasks of live jobs
	Running int // running tasks of live jobs
	Done    int // completed tasks of live jobs
	Queued  int // graphlet resource requests in the scheduler queue
}

// tenantState is what a tenant counts beyond its usage-view entry, and
// its place in the by-name order, which is also that entry's index.
type tenantState struct {
	jobs, done int // TenantCounts.Jobs and Done
	ui         int // index in Controller.tenantList and Controller.usage
}

// counts assembles a tenant's TenantCounts from its record and its
// usage-view entry.
func (c *Controller) counts(tc *tenantState) TenantCounts {
	u := c.usage[tc.ui]
	return TenantCounts{Tenant: u.Tenant, Jobs: tc.jobs, Pending: u.Pending, Running: u.Running,
		Done: tc.done, Queued: u.Queued}
}

// tenantCounts returns (creating on first use) the counter record for a
// tenant. Records persist after a tenant's last job retires — the counts
// drop back to zero but the tenant stays listed in status output.
func (c *Controller) tenantCounts(name string) *tenantState {
	tc := c.tenants[name]
	if tc == nil {
		tc = &tenantState{}
		c.tenants[name] = tc
		// Keep the by-name order the snapshots and the policy view promise,
		// paid once per tenant instead of a collect-and-sort per round.
		i := sort.Search(len(c.usage), func(i int) bool { return c.usage[i].Tenant > name })
		c.tenantList = slices.Insert(c.tenantList, i, tc)
		c.usage = slices.Insert(c.usage, i, sched.TenantUsage{Tenant: name})
		for ; i < len(c.tenantList); i++ {
			c.tenantList[i].ui = i
		}
	}
	return tc
}

// TenantSnapshots returns every tenant's aggregate counters, sorted by
// tenant name.
func (c *Controller) TenantSnapshots() []TenantCounts {
	if len(c.tenantList) == 0 {
		return nil
	}
	out := make([]TenantCounts, len(c.tenantList))
	for i, tc := range c.tenantList {
		out[i] = c.counts(tc)
	}
	return out
}

// TenantInFlight returns one tenant's pending+running task count in O(1)
// — the per-tenant admission budget consumer flow.Controller reads on
// every offer.
func (c *Controller) TenantInFlight(name string) int {
	tc := c.tenants[name]
	if tc == nil {
		return 0
	}
	u := &c.usage[tc.ui]
	return u.Pending + u.Running
}

// ReclaimedGangs returns how many whole graphlets policy preemption has
// reclaimed since the controller started.
func (c *Controller) ReclaimedGangs() int { return c.reclaims }
