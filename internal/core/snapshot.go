package core

import "slices"

// StateSnapshot is the aggregate view of the controller that admission
// control reads on every flow decision. The per-tenant counters behind it
// are maintained incrementally at each task state transition (O(delta) per
// event, never a full sweep), so a long-running service can consult it on
// every arriving submission without walking the job table.
type StateSnapshot struct {
	LiveJobs       int // admitted, not yet completed or failed
	PendingTasks   int // tasks of live jobs awaiting an executor
	RunningTasks   int // tasks of live jobs currently placed
	DoneTasks      int // completed tasks of live jobs
	SchedQueueLen  int // graphlet resource requests waiting in the scheduler
	FreeExecutors  int
	TotalExecutors int
}

// InFlightTasks is the admission-control budget consumer: work the cluster
// has accepted but not finished.
func (s StateSnapshot) InFlightTasks() int { return s.PendingTasks + s.RunningTasks }

// Snapshot returns the current aggregate state in O(tenants),
// allocation-free: the sums of the per-tenant counters TenantSnapshots
// lists one by one.
func (c *Controller) Snapshot() StateSnapshot {
	s := StateSnapshot{
		SchedQueueLen:  len(c.queue),
		FreeExecutors:  c.cl.FreeExecutors(),
		TotalExecutors: c.cl.NumExecutors(),
	}
	for i, tc := range c.tenantList {
		s.LiveJobs += tc.jobs
		s.PendingTasks += c.usage[i].Pending
		s.RunningTasks += c.usage[i].Running
		s.DoneTasks += tc.done
	}
	return s
}

// snapDelta applies one incremental task-count adjustment for a task of
// m's job to its tenant's usage-view entry and done count and to the
// job's running count.
func (c *Controller) snapDelta(m *monitor, dPending, dRunning, dDone int) {
	u := &c.usage[m.tc.ui]
	u.Pending += dPending
	u.Running += dRunning
	m.tc.done += dDone
	m.running += dRunning
}

// snapQueued moves the count of m's tenant's queue entries by d.
func (c *Controller) snapQueued(m *monitor, d int) {
	c.usage[m.tc.ui].Queued += d
}

// snapClose removes a job leaving the live set (completed or failed) from
// the aggregates and from the live-job order, by the runs' pending and
// running counters and the stages' done counters. O(stages + live jobs),
// paid once per job lifetime.
func (c *Controller) snapClose(m *monitor) {
	if i := slices.Index(c.order, m); i >= 0 {
		c.order = slices.Delete(c.order, i, i+1)
	}
	m.tc.jobs--
	for _, run := range m.gruns {
		c.snapDelta(m, -run.pending, -run.running, 0)
	}
	for _, st := range m.stages {
		c.snapDelta(m, 0, 0, -st.done)
	}
}
