package core

import (
	"swift/internal/sched"
)

// This file is the controller side of the pluggable policy pipeline: it
// flattens controller state into the pure sched.Item/Gang/View structs,
// executes JobOrder grant plans against the executor pool, and turns
// Preempt victims into whole-graphlet reclaims using the same per-task
// machinery as the deadlock breaker (abort → release → re-pend → cascade
// → requeue). The FIFO fast path in serveFIFO never enters this file.

// policyItems returns the policy's view of the request queue. The view is
// state the controller keeps: a round that finds it valid reuses it as is,
// and only a round after some other writer touched the queue (see
// Controller.itemsValid) pays the O(queue) rebuild. Like every view handed
// to a policy it is controller-owned scratch the policy may not retain.
func (c *Controller) policyItems() []sched.Item {
	if !c.itemsValid {
		c.items, c.staleItems = c.buildItems(c.items)
		c.itemsValid = true
	}
	return c.items
}

// buildItems flattens the request queue into dst and counts the entries
// with nothing launchable. Entries whose job left the live set or whose
// graphlet is no longer actually queued carry Pending 0; policies skip them
// and servePolicy's sweep retires them exactly as the FIFO walk would.
func (c *Controller) buildItems(dst []sched.Item) (items []sched.Item, stale int) {
	dst = resized(dst, len(c.queue))
	for i, it := range c.queue {
		m := it.m
		pi := &dst[i]
		pi.Index, pi.Job, pi.Graphlet = i, m.job.ID, it.g
		if !m.failed && !m.done {
			pi.Tenant = m.tenant
			pi.Seq = m.seq
			if run := m.gruns[it.g]; run.status == gQueued {
				pi.Pending = len(run.pending)
			}
		}
		if pi.Pending == 0 {
			stale++
		}
	}
	return dst, stale
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

// policyGangs flattens every graphlet currently holding executors, in
// submission order — the preemption candidate set — into scratch the next
// call overwrites.
func (c *Controller) policyGangs() []sched.Gang {
	c.gangs = c.gangs[:0]
	for _, m := range c.order {
		for g, run := range m.gruns {
			if run.running > 0 {
				c.gangs = append(c.gangs, sched.Gang{Job: m.job.ID, Tenant: m.tenant,
					Graphlet: g, Running: run.running, Seq: m.seq})
			}
		}
	}
	return c.gangs
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
// struct, sorted by tenant name (the View contract). Like policyItems the
// result is scratch the next call overwrites.
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

// servePolicy serves one scheduling round under a non-FIFO policy: ask
// JobOrder for a grant plan, execute it against the pool, then compact
// the queue. A nil plan falls back to the FIFO walk, so a policy can
// defer rounds it has no opinion on.
//
// The round keeps the policy view current as it goes — it patches Pending
// for the entries it serves and compacts c.items in step with c.queue — so
// its cost is what it grants or retires, not the queue's depth: a round
// that drops nothing leaves the queue untouched, and the sweep for stale
// entries runs only when the view says there is one.
func (c *Controller) servePolicy() {
	items := c.policyItems()
	grants := c.policy.JobOrder(items, c.policyView())
	if grants == nil {
		c.serveFIFO()
		c.itemsValid = false
		return
	}
	c.served = resized(c.served, len(c.queue))
	served := c.served
	first := len(c.queue) // lowest queue index this round drops
	for _, g := range grants {
		if c.cl.FreeExecutors() == 0 {
			break
		}
		if g.Index < 0 || g.Index >= len(served) || served[g.Index] {
			continue
		}
		it := c.queue[g.Index]
		if c.serveItem(it, g.Cap) {
			// Still queued: serveItem keeps only a live, queued run with
			// tasks left over.
			items[g.Index].Pending = len(it.m.gruns[it.g].pending)
		} else {
			served[g.Index] = true
			first = min(first, g.Index)
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
		it, stale := c.queue[i], items[i].Pending == 0
		switch {
		case served[i]:
		case sweep && stale:
			// Retired unvisited; a live run still marked queued has simply
			// run out of pending tasks.
			if m := it.m; !m.failed && !m.done && m.gruns[it.g].status == gQueued {
				m.gruns[it.g].status = gRunning
			}
		default:
			c.queue[w], items[w] = it, items[i]
			items[w].Index = w
			w++
			continue
		}
		if stale {
			c.staleItems--
		}
		it.m.tc.Queued--
	}
	c.queue, c.items = c.queue[:w], items[:w]
}

// preemptRound asks the policy for graphlet victims when the pool is dry
// with queued work waiting, reclaims them, and reports whether anything
// was freed (so schedule() re-serves the queue). The per-tenant share
// picture justifying the reclaim is recorded to the obs stream — only on
// rounds that actually preempt, so non-preempting runs keep their event
// streams (and hashes) unchanged.
func (c *Controller) preemptRound() bool {
	items := c.policyItems()
	view := c.policyView()
	victims := c.policy.Preempt(items, c.policyGangs(), view)
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
