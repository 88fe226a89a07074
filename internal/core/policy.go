package core

import (
	"slices"

	"swift/internal/sched"
)

// This file is the controller side of the pluggable policy pipeline: it
// flattens controller state into the pure sched.Item/Gang/View structs,
// executes JobOrder grant plans against the executor pool, and turns
// Preempt victims into whole-graphlet reclaims using the same per-task
// machinery as the deadlock breaker (abort → release → re-pend → cascade
// → requeue). The views are kept by deltas as the controller's state
// changes, under every policy: sched.FIFO goes through the same round,
// and its nil plan is answered by the FIFO walk in serveFIFO.

// viewItem is the policy's view of queue entry i. Entries whose job left
// the live set or whose graphlet is no longer actually queued carry
// Pending 0; policies skip them and servePolicy's sweep retires them
// exactly as the FIFO walk would.
func (c *Controller) viewItem(i int) sched.Item {
	it := c.queue[i]
	m := it.m
	pi := sched.Item{Index: c.qoff + i, Job: m.job.ID, Graphlet: it.g}
	if !m.failed && !m.done {
		pi.Tenant, pi.Seq = m.tenant, m.seq
		if run := m.gruns[it.g]; run.status == gQueued {
			pi.Pending = len(run.pending)
		}
	}
	return pi
}

// patchItem re-derives the kept view's entry of a run whose pending
// tasks, status or job changed outside servePolicy, keeping the stale
// count in step. A run with no queue entry has nothing to patch.
func (c *Controller) patchItem(run *graphletRun) {
	if run.qpos < 0 {
		return
	}
	i := run.qpos - c.qoff
	was := c.items[i].Pending
	c.items[i] = c.viewItem(i)
	switch now := c.items[i].Pending; {
	case was != 0 && now == 0:
		c.staleItems++
	case was == 0 && now != 0:
		c.staleItems--
	}
}

// buildItems flattens the request queue into a fresh view and counts the
// entries with nothing launchable: what the kept view must equal.
func (c *Controller) buildItems() (items []sched.Item, stale int) {
	items = make([]sched.Item, len(c.queue))
	for i := range c.queue {
		items[i] = c.viewItem(i)
		if items[i].Pending == 0 {
			stale++
		}
	}
	return items, stale
}

// resized returns s with length n and every element zeroed, reusing its
// backing array when that is large enough (and over-allocating by half
// when it is not, so a steadily growing queue reallocates rarely).
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2)
	}
	s = s[:n]
	clear(s)
	return s
}

// syncGang brings the kept gang list up to date after graphlet g's running
// count changed. While the run holds executors only its Running count
// moves; a run that starts holding them is inserted in (admission seq,
// graphlet) order, one that stops is removed, and either way the runs
// behind it learn their new index.
func (c *Controller) syncGang(m *monitor, g int) {
	run := m.gruns[g]
	switch {
	case run.gpos >= 0 && run.running > 0:
		c.gangs[run.gpos].Running = run.running
	case run.running > 0:
		i, _ := slices.BinarySearchFunc(c.gangs, sched.Gang{Seq: m.seq, Graphlet: g}, func(a, b sched.Gang) int {
			if a.Seq != b.Seq {
				return a.Seq - b.Seq
			}
			return a.Graphlet - b.Graphlet
		})
		c.gangs = slices.Insert(c.gangs, i, sched.Gang{Job: m.job.ID, Tenant: m.tenant,
			Graphlet: g, Running: run.running, Seq: m.seq})
		c.gangRuns = slices.Insert(c.gangRuns, i, run)
		c.renumberGangs(i)
	case run.gpos >= 0:
		i := run.gpos
		run.gpos = -1
		c.gangs = slices.Delete(c.gangs, i, i+1)
		c.gangRuns = slices.Delete(c.gangRuns, i, i+1)
		c.renumberGangs(i)
	}
}

// renumberGangs tells the runs from gang-list index i on where they are.
func (c *Controller) renumberGangs(i int) {
	for ; i < len(c.gangRuns); i++ {
		c.gangRuns[i].gpos = i
	}
}

// policyView assembles the cluster/tenant state policies decide against.
func (c *Controller) policyView() sched.View {
	return sched.View{
		TotalExecutors: c.cl.NumExecutors(),
		FreeExecutors:  c.cl.FreeExecutors(),
		Tenants:        c.usageSnapshots(),
	}
}

// usageSnapshots projects the per-tenant counters into the policy's usage
// struct, sorted by tenant name (the View contract). The result is
// scratch the next call overwrites.
func (c *Controller) usageSnapshots() []sched.TenantUsage {
	if len(c.tenantList) == 0 {
		return nil
	}
	c.usage = resized(c.usage, len(c.tenantList))
	for i, tc := range c.tenantList {
		c.usage[i] = sched.TenantUsage{Tenant: tc.Tenant, Running: tc.Running,
			Pending: tc.Pending, Queued: tc.Queued}
	}
	return c.usage
}

// servePolicy serves the request queue for one scheduling round, under
// every policy: ask JobOrder for a grant plan, execute it against the
// pool, then compact the queue. A nil plan — sched.FIFO's always, another
// policy's on a round it has no opinion on — is served by the FIFO walk,
// which keeps the view in step too. It reports whether the round executed
// a plan; a nil plan's walk is uncapped (see schedule).
//
// The round keeps the policy view current as it goes — it patches Pending
// for the entries it serves and compacts c.items in step with c.queue — so
// its cost is what it grants or retires, not the queue's depth: a round
// that drops nothing leaves the queue untouched, and the sweep for stale
// entries runs only when the view says there is one.
func (c *Controller) servePolicy() (planned bool) {
	if len(c.queue) == 0 || c.cl.FreeExecutors() == 0 {
		return false
	}
	items := c.items
	grants := c.policy.JobOrder(items, c.policyView())
	if grants == nil {
		c.serveFIFO()
		return false
	}
	c.served = resized(c.served, len(c.queue))
	served := c.served
	first := len(c.queue) // lowest queue index this round drops
	for _, g := range grants {
		if c.cl.FreeExecutors() == 0 {
			break
		}
		i := g.Index - c.qoff
		if i < 0 || i >= len(served) || served[i] {
			continue
		}
		it := c.queue[i]
		if c.serveItem(it, g.Cap) {
			// Still queued: serveItem keeps only a live, queued run with
			// tasks left over.
			items[i].Pending = len(it.m.gruns[it.g].pending)
		} else {
			served[i] = true
			first = min(first, i)
		}
	}
	// Compact: drop entries the grants consumed. When executors remain —
	// the round visited everything it wanted — also retire dead and stale
	// entries the policy skipped, mirroring the FIFO walk (which visits
	// every entry whenever the pool stays wet). Stale is exactly Pending 0
	// in the view, so the sweep reads the view, not the monitors.
	sweep := c.staleItems > 0 && c.cl.FreeExecutors() > 0
	if sweep {
		first = 0
	}
	w := first
	for i := first; i < len(c.queue); i++ {
		it := c.queue[i]
		switch {
		case served[i]:
		case sweep && items[i].Pending == 0:
			// Retired unvisited; a live run still marked queued has simply
			// run out of pending tasks.
			if m := it.m; !m.failed && !m.done && m.gruns[it.g].status == gQueued {
				m.gruns[it.g].status = gRunning
			}
		default:
			c.move(i, w)
			w++
			continue
		}
		c.drop(i)
	}
	c.truncate(w)
	return true
}

// preemptRound asks the policy for graphlet victims when the pool is dry
// with queued work waiting, reclaims them, and reports whether anything
// was freed (so schedule() re-serves the queue). The per-tenant share
// picture justifying the reclaim is recorded to the obs stream — only on
// rounds that actually preempt, so non-preempting runs keep their event
// streams (and hashes) unchanged.
func (c *Controller) preemptRound() bool {
	view := c.policyView()
	victims := c.policy.Preempt(c.items, c.gangs, view)
	if len(victims) == 0 {
		return false
	}
	if c.opts.Obs.Enabled() {
		for _, s := range c.policy.Proportion(view) {
			c.opts.Obs.TenantShare(s.Tenant, s.Running, s.Deserved)
		}
	}
	reclaimed := false
	for _, v := range victims {
		if c.reclaimGang(v) {
			reclaimed = true
		}
	}
	return reclaimed
}

// reclaimGang preempts every running task of one graphlet and re-queues
// it, reusing the deadlock breaker's machinery: abort, release the
// executor, re-pend with the retry reason (the preemption is not the
// task's fault, so retry budgets are untouched), and cascade when the
// stage is non-idempotent. Reports whether any task was actually
// reclaimed.
func (c *Controller) reclaimGang(v sched.Victim) bool {
	m := c.jobs[v.Job]
	if m == nil || m.failed || m.done || v.Graphlet < 0 || v.Graphlet >= len(m.gruns) {
		return false
	}
	aborted := 0
	for si, st := range m.stages {
		if st.graphlet != v.Graphlet {
			continue
		}
		for i := range st.status {
			if st.status[i] != tRunning {
				continue
			}
			c.emit(ActAbortTask{Task: m.ref(si, i), Executor: st.executor[i], Attempt: st.attempt[i]})
			c.releaseRunning(m, st, i)
			c.markPending(m, si, i, StartRetry)
			if !st.spec.Idempotent {
				// Successors may have consumed streamed rows; they re-run
				// too (and any running ones are aborted by the cascade, so
				// this loop sees them as no longer running).
				c.cascade(m, si, v.Graphlet, nil)
			}
			aborted++
		}
	}
	if aborted == 0 {
		return false
	}
	c.requeue(m, v.Graphlet)
	c.reclaims++
	c.opts.Obs.GangReclaimed(m.job.ID, v.Graphlet, aborted, m.tenant)
	return true
}
