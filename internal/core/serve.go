package core

import (
	"slices"

	"swift/internal/cluster"
	"swift/internal/sched"
)

// This file is the scheduling round, one for every policy: the request
// queue's bookkeeping, schedule and its deadlock breaker, and the
// controller side of the pluggable policy pipeline. The round flattens
// controller state into the pure sched.Item/Gang/View structs (kept by
// deltas as the state changes), runs a JobOrder plan or a nil plan's
// queue-order walk in one loop, and turns Preempt victims into
// whole-graphlet reclaims through the deadlock breaker's preempt.

// requeue re-registers a graphlet that needs more executors (recovery or a
// pool shrunk by machine failure). A run has at most one queue entry, and
// one still queued — stale or not — keeps its place.
func (c *Controller) requeue(run *graphletRun) {
	if run.qpos < 0 {
		c.enqueue(run)
	}
}

// enqueue appends a resource request for the run's graphlet.
func (c *Controller) enqueue(run *graphletRun) {
	run.status = gQueued
	run.qpos = c.qoff + len(c.queue)
	c.queue = append(c.queue, run)
	c.items = append(c.items, c.viewItem(len(c.queue)-1))
	if c.items[len(c.items)-1].Pending == 0 {
		c.staleItems++
	}
	c.snapQueued(run.m, 1)
	c.opts.Obs.GraphletQueued(run.m.job.ID, run.g, run.pending)
}

// move shifts the queue entry at position from to position to, where
// the caller has made room; the entry's run and view entry follow it.
func (c *Controller) move(from, to int) {
	run := c.queue[from]
	c.queue[to] = run
	run.qpos = c.qoff + to
	c.items[to] = c.items[from]
	c.items[to].Index = c.qoff + to
}

// drop retires the queue entry at position i and marks its view entry
// Pending -1; the caller compacts the queue over it.
func (c *Controller) drop(i int) {
	run := c.queue[i]
	run.qpos = -1
	c.snapQueued(run.m, -1)
	if c.items[i].Pending == 0 {
		c.staleItems--
	}
	c.items[i].Pending = -1
}

// maxPreemptRounds bounds policy preemptions per scheduling round; each
// reclaim frees executors and re-serves the queue, and the next event's
// schedule() continues if shares are still out of balance.
const maxPreemptRounds = 4

// schedule is the ResourceScheduleLoop: serve the request queue, and if
// requests are still waiting, check for the one stall serving alone cannot
// fix — every executor held by pipeline consumers idle-waiting on producer
// tasks that recovery pushed back to pending. Breaking that deadlock frees
// an executor, so the queue is served again. A dry pool with starved
// queued work may also warrant preemption: the policy nominates
// whole-graphlet victims to reclaim (sched.FIFO never does), reusing the
// deadlock breaker's per-task machinery.
func (c *Controller) schedule() {
	preempts := 0
	for {
		freeBefore := c.cl.FreeExecutors()
		c.servePolicy()
		if len(c.queue) == 0 {
			return
		}
		// A wet pool after a progressing round re-plans: a plan may be
		// budgeted, and a launch may have consumed the last of a tenant's
		// quota with work still queued behind it.
		free := c.cl.FreeExecutors()
		if free > 0 && free < freeBefore {
			continue
		}
		// Otherwise the round launched nothing or the pool is dry, the
		// normal saturated state. Either is a deadlock only when recovery
		// has re-pended work somewhere (a re-pended run), so the scan is
		// gated on that. On a wet pool the clamped remainder may be wedged
		// behind its own quota — every quota slot held by consumers parked
		// on the very producers the clamp keeps queued, a state no future
		// event will fix — and preempting one parked consumer frees a unit
		// of quota for the starved producer. A gang larger than the free
		// pool is never the starved side (see breakDeadlock).
		if len(c.repended) != 0 && c.breakDeadlock() {
			continue
		}
		// Only a dry pool may warrant policy preemption.
		if free > 0 || preempts >= maxPreemptRounds || !c.preemptRound() {
			return
		}
		preempts++
	}
}

// serveItem tries to allocate executors for one queued graphlet request
// and reports whether the item should remain queued. limit > 0 caps how
// many tasks may launch this round (a policy grant's tenant budget); it
// applies after a gang unit's full-fit check, which keeps gang semantics a
// property of the graphlet, not of the policy.
func (c *Controller) serveItem(run *graphletRun, limit int) (keep bool) {
	m := run.m
	if m.failed || m.done {
		return false
	}
	if run.status != gQueued || run.pending == 0 {
		if run.status == gQueued {
			run.status = gRunning
		}
		return false
	}
	want := run.pending
	if run.gang && c.cl.FreeExecutors() < want {
		// Nothing launches until the whole gang fits.
		return true
	}
	if limit > 0 && want > limit {
		want = limit
	}
	execs := c.cl.Allocate(want, nil)
	if len(execs) == 0 {
		return true
	}
	for i, e := range execs {
		if run.pending == 0 {
			// More executors than pending tasks (pending shrank since
			// `want` was computed): return the leftovers.
			c.cl.Release(execs[i:])
			break
		}
		c.launch(m, run, c.takePending(m, run), e)
	}
	if run.pending > 0 {
		return true
	}
	run.status = gRunning
	return false
}

// takePending takes the next pending task to launch, upstream stages
// first: the smallest (topological stage index, task index) among the
// run's pending tasks, so a re-pended producer always launches before more
// of its consumers — launching consumers first would park them on data
// the producer cannot regenerate without an executor. No pending task sits
// behind the run's cursor, so the walk starts there and leaves the cursor
// just past the task it takes. The caller launches the task, and the run
// must have one pending.
func (c *Controller) takePending(m *monitor, run *graphletRun) taskID {
	for ; ; run.nk, run.ni = run.nk+1, 0 {
		si := run.stages[run.nk]
		tasks := m.stages[si].tasks
		for ; run.ni < len(tasks); run.ni++ {
			if tasks[run.ni].status != TaskPending {
				continue
			}
			id := taskID{int32(si), int32(run.ni)}
			run.ni++
			run.pending--
			if run.repended && run.pending == 0 {
				run.repended = false
				c.repended = slices.DeleteFunc(c.repended, func(d *graphletRun) bool { return d == run })
			}
			return id
		}
	}
}

// breakDeadlock resolves the one stall the resource loop cannot serve its
// way out of: recovery re-pends producer tasks (lost output, machine
// crash) while downstream consumers occupy every executor waiting for
// exactly that data — the consumers never finish, so no executor is ever
// freed for the producers. The stall can span graphlets: a gating stage
// that regresses after its consumer graphlet launched leaves that
// graphlet's tasks parked on data nobody can regenerate. For the first
// starved queue item, the most-downstream running task of the same job
// below a pending stage is preempted, and the starved item moves to the
// queue front so the freed executor goes to the blocked producer rather
// than relaunching a consumer that would only park again. The preemption
// is not the victim's fault, so its retry budget is untouched; a
// non-idempotent victim cascades exactly like a failed one. Returns
// whether a task was preempted (i.e. an executor may have been freed).
//
// A gang larger than a wet pool is short of executors, not of data, so it
// is not starved. Only WholeJobPartition makes gangs, so any victim for it
// is the gang's own task: preempting it frees one executor and re-pends
// one task, and the gang never fits sooner. A gang the pool could take is
// starved like any run (the walk stopped at a waiting gang ahead of it),
// and is preempted for even though a move alone would launch it: only
// preempting steps are bounded (DESIGN.md "Scheduling policy layer").
func (c *Controller) breakDeadlock() bool {
	// Every deadlock starves a recovery-re-pended producer, and re-pending
	// puts its run on the re-pended list — other runs cannot be the
	// blocked side of a deadlock. So only the queued re-pended runs are
	// examined, in queue order. A victim is a running task of the same
	// job: a job reclaimed down to nothing running stays queued and
	// re-pended round after round, and is passed over here.
	c.starved = c.starved[:0]
	free := c.cl.FreeExecutors()
	for _, run := range c.repended {
		m := run.m
		if run.qpos >= 0 && run.status == gQueued && run.pending > 0 && !m.failed && !m.done &&
			!(run.gang && free > 0 && run.pending > free) &&
			m.running > 0 {
			c.starved = append(c.starved, run)
		}
	}
	if len(c.starved) > 1 {
		slices.SortFunc(c.starved, func(a, b *graphletRun) int { return a.qpos - b.qpos })
	}
	for _, run := range c.starved {
		m := run.m
		vs, vi := c.deadlockVictim(m, run)
		if vs < 0 {
			continue
		}
		c.preempt(m, vs, vi)
		c.requeue(m.gruns[m.stages[vs].graphlet])
		// Serve the starved producer first: each preemption then launches
		// a task strictly upstream of its victim, which bounds the number
		// of preemptions one scheduling round can perform.
		qi := run.qpos - c.qoff
		view := c.items[qi]
		for k := qi; k > 0; k-- {
			c.move(k-1, k)
		}
		view.Index = c.qoff
		c.queue[0], c.items[0], run.qpos = run, view, c.qoff
		return true
	}
	return false
}

// deadlockVictim picks the task to preempt for a starved re-pended run:
// the most-downstream running task of the job strictly below any stage
// with pending work in the run, preferring one whose executor will
// actually repool (healthy machine). It returns (-1, -1) when nothing
// below is running.
func (c *Controller) deadlockVictim(m *monitor, run *graphletRun) (stage, index int) {
	// Stages strictly downstream of a pending stage. Topological order
	// makes one forward sweep a transitive closure: a stage is below if
	// any producer is pending in this run or itself below.
	c.below = resized(c.below, len(m.stages))
	below := c.below
	for _, s := range run.stages {
		if pendingTasks(m.stages[s]) > 0 {
			for _, e := range m.stages[s].out {
				below[e.to] = true
			}
		}
	}
	for s, st := range m.stages {
		if below[s] {
			for _, e := range st.out {
				below[e.to] = true
			}
		}
	}
	stage, index = -1, -1
	for s := len(m.stages) - 1; s >= 0; s-- {
		if !below[s] {
			continue
		}
		for i, t := range m.stages[s].tasks {
			if t.status != TaskRunning {
				continue
			}
			if c.cl.Machine(c.cl.MachineOf(t.executor)).Health == cluster.Healthy {
				return s, i
			}
			if index < 0 {
				stage, index = s, i
			}
		}
	}
	return stage, index
}

// launch starts one task attempt on an executor and emits the action. The
// start reason was recorded in the stage state by whoever marked the task
// pending (fresh submission, retry or cascade).
func (c *Controller) launch(m *monitor, run *graphletRun, id taskID, e cluster.ExecutorID) {
	st := m.stages[id.stage]
	i := int(id.index)
	t := &st.tasks[i]
	reason := t.reason
	t.reason = StartFresh
	t.status = TaskRunning
	t.executor = e
	t.attempt++
	t.started = true
	run.running++
	c.syncGang(run)
	c.snapDelta(m, -1, 1, 0)
	ref := TaskRef{Job: m.job.ID, Stage: st.spec.Name, Index: i}
	c.emit(Action{Kind: ActStartTask, Job: m.handle, Task: ref, Executor: e, Stage: id.stage,
		Graphlet: int16(st.graphlet), Attempt: int32(t.attempt), Reason: reason})
	if reason == StartRetry && st.spec.Idempotent {
		// Intra-graphlet idempotent recovery: surviving pipeline
		// producers in the same graphlet re-send buffered output.
		for _, from := range st.in {
			if pst := m.stages[from]; pst.graphlet == st.graphlet {
				c.emit(Action{Kind: ActResend, Job: m.handle, Task: ref, Detail: &ActionDetail{FromStage: pst.spec.Name}})
			}
		}
	}
}

// viewItem is the policy's view of queue entry i. Entries whose job left
// the live set or whose graphlet is no longer actually queued carry
// Pending 0; policies skip them and servePolicy retires them when it
// reaches them or sweeps.
func (c *Controller) viewItem(i int) sched.Item {
	run := c.queue[i]
	m := run.m
	pi := sched.Item{Index: c.qoff + i, Job: m.job.ID, Graphlet: run.g}
	if !m.failed && !m.done {
		pi.Tenant, pi.Seq = m.tenant, m.seq
		if run.status == gQueued {
			pi.Pending = run.pending
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

// syncGang brings the kept gang list up to date after the run's running
// count changed. While the run holds executors only its Running count
// moves; a run that starts holding them is inserted in (admission seq,
// graphlet) order, one that stops is removed, and either way the runs
// behind it learn their new index.
func (c *Controller) syncGang(run *graphletRun) {
	m, g := run.m, run.g
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

// policyView is the cluster/tenant state policies decide against. Its
// tenants are the kept usage view, sorted by tenant name (the View
// contract).
func (c *Controller) policyView() sched.View {
	return sched.View{
		TotalExecutors: c.cl.NumExecutors(),
		FreeExecutors:  c.cl.FreeExecutors(),
		Tenants:        c.usage,
	}
}

// servePolicy is one scheduling round, under every policy: ask JobOrder
// for a grant plan and run it against the pool, then compact the queue. A
// nil plan — sched.FIFO's always, another policy's on a round it has no
// opinion on — is the implicit plan "every entry in queue order, uncapped",
// which stops after a gang unit it keeps: a waiting gang blocks the walk
// (graphlet.Graphlet.Gang). Entries behind one that cannot progress may
// still be served (backfill), which lets small jobs flow around a large one.
//
// An entry serveItem does not keep is retired as it is visited (dropped,
// and marked Pending -1 in the view). The round keeps the view current as
// it goes, so its cost is what it grants or retires, not the queue's
// depth: a dropped prefix goes by re-slicing, anything else compacts from
// the first drop, and a round that drops nothing leaves the queue
// untouched. That makes the saturated FIFO round — the head entry absorbs
// the one freed executor — O(1), which it must stay: it runs on every task
// completion. Stale entries (Pending 0) the walk did not reach are swept
// only when the pool stays wet and no gang blocked it.
func (c *Controller) servePolicy() {
	if len(c.queue) == 0 || c.cl.FreeExecutors() == 0 {
		return
	}
	grants := c.policy.JobOrder(c.items, c.policyView())
	hi := -1 // the highest position dropped
	blocked := false
	for k := 0; c.cl.FreeExecutors() > 0; k++ {
		i, limit := k, 0
		if grants == nil {
			if i == len(c.queue) {
				break
			}
		} else {
			if k == len(grants) {
				break
			}
			i, limit = grants[k].Index-c.qoff, grants[k].Cap
			if i < 0 || i >= len(c.queue) || c.items[i].Pending < 0 {
				continue
			}
		}
		run := c.queue[i]
		if !c.serveItem(run, limit) {
			c.drop(i)
			hi = max(hi, i)
			continue
		}
		c.items[i].Pending = run.pending
		if grants == nil && run.gang {
			blocked = true
			break
		}
	}
	if !blocked && c.staleItems > 0 && c.cl.FreeExecutors() > 0 {
		for i := 0; i < len(c.queue) && c.staleItems > 0; i++ {
			if c.items[i].Pending == 0 {
				c.serveItem(c.queue[i], 0) // never kept: it only retires the run
				c.drop(i)
				hi = max(hi, i)
			}
		}
	}
	c.compact(hi)
}

// compact closes the queue, and the view with it, over the entries
// dropped at positions up to hi (none when hi is -1): a dropped prefix
// goes by re-slicing, which keeps the tail where it is, and the entries
// behind the first drop left move down over it.
func (c *Controller) compact(hi int) {
	k := 0
	for k <= hi && c.items[k].Pending < 0 {
		k++
	}
	c.queue, c.items, c.qoff, hi = c.queue[k:], c.items[k:], c.qoff+k, hi-k
	w := 0
	for w <= hi && c.items[w].Pending >= 0 {
		w++
	}
	if w > hi {
		return
	}
	for i := w; i < len(c.queue); i++ {
		if c.items[i].Pending >= 0 {
			c.move(i, w)
			w++
		}
	}
	c.queue, c.items = c.queue[:w], c.items[:w]
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

// reclaimGang preempts every running task of one graphlet, as the deadlock
// breaker preempts its victim, and re-queues the graphlet once, after all
// of them. Reports whether any task was actually reclaimed.
func (c *Controller) reclaimGang(v sched.Victim) bool {
	m := c.jobs[v.Job]
	if m == nil || v.Graphlet < 0 || v.Graphlet >= len(m.gruns) {
		return false
	}
	aborted := 0
	for _, si := range m.gruns[v.Graphlet].stages {
		for i := range m.stages[si].tasks {
			// A non-idempotent task's cascade aborts its running successors,
			// so this loop sees them as no longer running.
			if m.stages[si].tasks[i].status == TaskRunning {
				c.preempt(m, si, i)
				aborted++
			}
		}
	}
	if aborted == 0 {
		return false
	}
	c.requeue(m.gruns[v.Graphlet])
	c.reclaims++
	c.opts.Obs.GangReclaimed(m.job.ID, v.Graphlet, aborted, m.tenant)
	return true
}
