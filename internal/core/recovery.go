package core

import (
	"fmt"
	"sort"

	"swift/internal/cluster"
	"swift/internal/shuffle"
)

// TaskFailed handles a detected task failure (Section IV-B). Stale attempt
// numbers are ignored. Application-logic errors skip recovery entirely
// (Section IV-C, "Avoiding Useless Failure Recovery").
func (c *Controller) TaskFailed(ref TaskRef, attempt int, kind FailureKind) {
	m := c.jobs[ref.Job]
	if m == nil || m.failed || m.done {
		return
	}
	si, ok := m.stageIdx[ref.Stage]
	if !ok {
		return
	}
	st := m.stages[si]
	if ref.Index < 0 || ref.Index >= len(st.status) {
		return
	}
	if st.status[ref.Index] != tRunning || st.attempt[ref.Index] != attempt {
		return
	}
	c.opts.Obs.TaskFailed(ref.Job, ref.Stage, ref.Index, attempt, kind.String())

	if kind == FailAppError {
		c.failJob(m, fmt.Sprintf("application error in %s", ref))
		return
	}

	// Track machine failure bursts for the health monitor.
	if e := st.executor[ref.Index]; e >= 0 {
		mid := c.cl.MachineOf(e)
		if c.cl.RecordTaskFailure(mid) >= c.opts.UnhealthyThreshold && c.cl.Machine(mid).Health == cluster.Healthy {
			c.MachineUnhealthy(mid)
		}
	}

	if c.opts.Recovery == JobRestart {
		c.restartJob(m)
		return
	}

	st.retries[ref.Index]++
	if st.retries[ref.Index] > c.opts.MaxTaskRetries {
		c.failJob(m, fmt.Sprintf("task %s exceeded %d retries", ref, c.opts.MaxTaskRetries))
		return
	}
	c.releaseRunning(m, st, ref.Index)
	c.markPending(m, si, ref.Index, StartRetry)

	// Non-idempotent tasks may have streamed rows that successors
	// already consumed; those successors must re-run too (Fig. 6b). The
	// cascade stays within the graphlet: cross-graphlet consumers read
	// from Cache Workers whose contents the re-run will replace before
	// the consumer graphlet is submitted (Figs. 7a/7b).
	if !st.spec.Idempotent {
		c.cascade(m, si, st.graphlet, nil)
	}

	c.requeue(m, st.graphlet)
	c.schedule()
}

// cascade re-runs every started task of the successor stages of `stage`
// within graphlet g, transitively. Callers pass nil for visited.
func (c *Controller) cascade(m *monitor, stage, g int, visited []bool) {
	if visited == nil {
		visited = make([]bool, len(m.stages))
		visited[stage] = true
	}
	for _, to := range m.stages[stage].out {
		st := m.stages[to]
		if visited[to] || st.graphlet != g {
			continue
		}
		visited[to] = true
		for i := range st.status {
			if !st.started[i] {
				continue
			}
			switch st.status[i] {
			case tRunning:
				c.emit(ActAbortTask{Task: m.ref(to, i), Executor: st.executor[i], Attempt: st.attempt[i]})
				c.releaseRunning(m, st, i)
				c.markPending(m, to, i, StartCascade)
			case tDone:
				st.done--
				c.markPending(m, to, i, StartCascade)
			case tPending:
				// already awaiting a fresh run; nothing to cascade
			}
		}
		c.requeue(m, g)
		c.cascade(m, to, g, visited)
	}
}

// releaseRunning returns a running task's executor to the pool and fixes
// the graphlet's running count. The task's status is left to the caller.
func (c *Controller) releaseRunning(m *monitor, st *stageState, i int) {
	if st.status[i] != tRunning {
		return
	}
	run := m.gruns[st.graphlet]
	run.running--
	if e := st.executor[i]; e >= 0 {
		c.cl.ReleaseOne(e)
	}
	st.status[i] = tPending
	c.snapDelta(m, 1, -1, 0)
}

// markPending resets a task for re-execution with the given reason and
// appends it to its graphlet's pending queue. A task that re-enters the
// pending state needs its input data again, so any producer whose buffered
// output was lost under the "no step taken" rule must re-run first; those
// producers are revived here, transitively up the DAG.
func (c *Controller) markPending(m *monitor, stage, i int, reason StartReason) {
	st := m.stages[stage]
	c.snapMarkPending(m, st.status[i])
	st.status[i] = tPending
	st.reason[i] = reason
	st.lost[i] = false // a re-run regenerates the output
	if st.homes != nil {
		st.homes[i] = nil // stale copies; re-replicated at finish
	}
	run := m.gruns[st.graphlet]
	run.pending = append(run.pending, taskID{int32(stage), int32(i)})
	if !run.disordered {
		// Launch selection must restore topological order, and the
		// scheduler's deadlock check watches for disordered runs.
		run.disordered = true
		c.disorderedRuns++
	}
	if run.status == gDone {
		run.status = gQueued
	}
	c.reviveLostInputs(m, st)
}

// reviveLostInputs re-runs every completed producer task of a stage whose
// buffered output was lost while "not needed" — a consumer of that output
// has just become pending again, so the data is needed after all. The
// recursion through markPending walks producers upward and terminates
// because each revived task leaves the done+lost state and the DAG is
// acyclic.
func (c *Controller) reviveLostInputs(m *monitor, st *stageState) {
	for _, from := range st.in {
		pst := m.stages[from]
		revived := false
		for i := range pst.status {
			if pst.status[i] != tDone || !pst.lost[i] {
				continue
			}
			pst.done--
			c.markPending(m, from, i, StartRetry)
			revived = true
		}
		if revived {
			c.requeue(m, pst.graphlet)
		}
	}
}

// MachineFailed handles a detected machine crash: every executor on the
// machine is revoked, running tasks there fail, and completed tasks whose
// Cache Worker output lived on the machine and is still needed are re-run
// (their consumers will fetch the regenerated data; Section IV-B2).
func (c *Controller) MachineFailed(id cluster.MachineID) {
	// Fail running tasks hosted there, then mark completed-but-needed
	// outputs lost. Collect first: recovery mutates state.
	type victim struct {
		ref     TaskRef
		attempt int
		running bool
	}
	var victims []victim
	for _, jobID := range c.order {
		m := c.jobs[jobID]
		if m == nil || m.failed || m.done {
			continue
		}
		for _, name := range m.job.StageNames() {
			st := m.stage(name)
			for i := range st.status {
				if st.executor[i] < 0 || c.cl.MachineOf(st.executor[i]) != id {
					continue
				}
				ref := TaskRef{Job: jobID, Stage: name, Index: i}
				switch st.status[i] {
				case tRunning:
					victims = append(victims, victim{ref, st.attempt[i], true})
				case tDone:
					if st.homes != nil && len(st.homes[i]) > 0 {
						// Replicated output: the replica pass below decides
						// whether any copy survived the machine.
						continue
					}
					victims = append(victims, victim{ref, st.attempt[i], false})
				case tPending:
					// not placed anywhere: the machine's death cannot
					// have touched it
				}
			}
		}
	}
	// Running tasks recover first: a consumer re-marked pending by that
	// pass re-needs its producers' buffered outputs, which the
	// lost-output pass below then regenerates.
	sort.SliceStable(victims, func(a, b int) bool {
		return victims[a].running && !victims[b].running
	})
	c.cl.SetHealth(id, cluster.Failed)
	c.opts.Obs.MachineFailed(int(id))
	c.deferSchedule = true
	for _, v := range victims {
		m := c.jobs[v.ref.Job]
		if m == nil || m.failed || m.done {
			continue
		}
		if v.running {
			c.emit(ActAbortTask{Task: v.ref, Executor: m.stage(v.ref.Stage).executor[v.ref.Index], Attempt: v.attempt})
			c.TaskFailed(v.ref, v.attempt, FailCrash)
		} else {
			// Lost output of a finished task: TaskOutputLost applies
			// the "no step taken" rule (or restarts the job under the
			// baseline policy).
			c.TaskOutputLost(v.ref)
		}
	}
	if c.opts.ShuffleReplicas > 1 {
		// Replicated outputs with a copy on the dead machine: surviving
		// replicas promote silently, only fully-orphaned outputs recover.
		for _, ref := range c.strikeReplica(id) {
			c.TaskOutputLost(ref)
		}
	}
	c.deferSchedule = false
	c.schedule()
}

// strikeReplica removes a dead machine from every finished task's replica
// set. A task whose serving (head) copy died but has survivors promotes the
// next replica in place — counted as a replica recovery, no scheduling step.
// Only tasks whose LAST copy died are returned; they need the full
// output-lost treatment.
func (c *Controller) strikeReplica(id cluster.MachineID) []TaskRef {
	var orphans []TaskRef
	for _, jobID := range c.order {
		m := c.jobs[jobID]
		if m == nil || m.failed || m.done {
			continue
		}
		for _, name := range m.job.StageNames() {
			st := m.stage(name)
			if st.homes == nil {
				continue
			}
			for i := range st.status {
				homes := st.homes[i]
				if st.status[i] != tDone || len(homes) == 0 {
					continue
				}
				pos := -1
				for j, h := range homes {
					if h == id {
						pos = j
						break
					}
				}
				if pos < 0 {
					continue
				}
				homes = append(homes[:pos], homes[pos+1:]...)
				st.homes[i] = homes
				if len(homes) == 0 {
					orphans = append(orphans, TaskRef{Job: jobID, Stage: name, Index: i})
					continue
				}
				if pos == 0 {
					c.replicaHits++
					c.opts.Obs.ReplicaServed(jobID, name, i, int(homes[0]))
				}
			}
		}
	}
	return orphans
}

// outputStillNeeded reports whether some consumer task has yet to receive
// the stage's buffered output. Running consumers already received it —
// pipeline consumers by streaming, barrier consumers by fetching from the
// Cache Worker at launch — so only never-started (pending) consumer tasks
// still need it ("If T6 and T7 have received the desired data from T4, no
// step will be taken").
func (c *Controller) outputStillNeeded(m *monitor, st *stageState) bool {
	// A sink stage has no consumers: its output is already with the client.
	for _, to := range st.out {
		for _, status := range m.stages[to].status {
			if status == tPending {
				return true
			}
		}
	}
	return false
}

// TaskOutputLost reports that the buffered output of a completed task was
// lost (e.g. its Cache Worker's memory was reclaimed or the hosting process
// died without taking the machine down). If every consumer already received
// the data, no step is taken; otherwise the task re-runs so consumers can
// re-fetch (the Fig. 6a / Fig. 7 semantics).
func (c *Controller) TaskOutputLost(ref TaskRef) {
	m := c.jobs[ref.Job]
	if m == nil || m.failed || m.done {
		return
	}
	si, ok := m.stageIdx[ref.Stage]
	if !ok {
		return
	}
	st := m.stages[si]
	if ref.Index < 0 || ref.Index >= len(st.status) || st.status[ref.Index] != tDone {
		return
	}
	if c.opts.Recovery == JobRestart {
		// The baseline policy restarts on any failure; the "no step
		// taken" shortcut below is Swift's fine-grained intelligence.
		c.opts.Obs.OutputLost(ref.Job, ref.Stage, ref.Index, "restart")
		c.restartJob(m)
		return
	}
	if st.homes != nil {
		// Reaching here means every copy is gone (a direct loss report
		// bypasses replicas by design — e.g. the buffer was evicted fleet-
		// wide); clear the stale replica set.
		st.homes[ref.Index] = nil
	}
	if !c.outputStillNeeded(m, st) {
		// "No step will be taken" — but remember the loss so a consumer
		// that later re-enters the pending state revives this producer.
		st.lost[ref.Index] = true
		c.opts.Obs.OutputLost(ref.Job, ref.Stage, ref.Index, "no-step")
		return
	}
	c.opts.Obs.OutputLost(ref.Job, ref.Stage, ref.Index, "rerun")
	c.recomputes++
	// Regenerating a lost output is a retry like any other: without this
	// bound, an output that keeps getting lost (flapping Cache Worker,
	// repeatedly crashing machine) re-runs the task forever.
	st.retries[ref.Index]++
	if st.retries[ref.Index] > c.opts.MaxTaskRetries {
		c.failJob(m, fmt.Sprintf("task %s exceeded %d retries regenerating lost output", ref, c.opts.MaxTaskRetries))
		return
	}
	st.done--
	c.markPending(m, si, ref.Index, StartRetry)
	if !st.spec.Idempotent {
		c.cascade(m, si, st.graphlet, nil)
	}
	c.requeue(m, st.graphlet)
	c.schedule()
}

// MachineUnhealthy applies the health monitor's read-only policy: the
// machine finishes its running tasks but receives no new ones.
func (c *Controller) MachineUnhealthy(id cluster.MachineID) {
	if c.cl.Machine(id).Health != cluster.Healthy {
		return
	}
	c.cl.SetHealth(id, cluster.ReadOnly)
	c.emit(ActMachineReadOnly{Machine: id})
}

// MachineRecovered re-admits a machine to the pool: a read-only machine
// that stayed healthy through an observation window rejoins with its idle
// executors, and a crashed machine that rebooted rejoins with a fresh
// executor set. The failure counter resets so one old burst cannot
// immediately re-drain it, and the scheduler runs because capacity grew.
func (c *Controller) MachineRecovered(id cluster.MachineID) {
	if c.cl.Machine(id).Health == cluster.Healthy {
		return
	}
	c.cl.ResetTaskFailures(id)
	c.cl.SetHealth(id, cluster.Healthy)
	c.emit(ActMachineHealthy{Machine: id})
	c.schedule()
}

// CacheWorkerLost handles the crash of one machine's Cache Worker process
// (the machine itself survives): every buffered output hosted there is
// gone. Each lost key is reported to the recovery logic individually —
// TaskOutputLost applies the "no step taken" rule per task — and shuffle
// edges out of the affected stages that depended on Cache Workers degrade
// to Direct for the regenerated data, so the re-run cannot be taken down
// by the same worker again. Scheduling is deferred until the whole storm
// is processed so recovery decisions see the full damage.
func (c *Controller) CacheWorkerLost(id cluster.MachineID) {
	if c.opts.ShuffleReplicas > 1 {
		// Replica-aware path: consult surviving copies before falling back
		// to producer recompute. Only fully-orphaned outputs recover, and
		// only their edges degrade — replicated data that failed over keeps
		// its Cache-Worker-backed mode.
		c.opts.Obs.CacheWorkerLost(int(id))
		orphans := c.strikeReplica(id)
		c.deferSchedule = true
		for _, ref := range orphans {
			m := c.jobs[ref.Job]
			if m == nil || m.failed || m.done {
				continue
			}
			c.degradeEdges(m, ref.Stage)
			c.TaskOutputLost(ref)
		}
		c.deferSchedule = false
		c.schedule()
		return
	}
	var lost []TaskRef
	for _, jobID := range c.order {
		m := c.jobs[jobID]
		if m == nil || m.failed || m.done {
			continue
		}
		for _, name := range m.job.StageNames() {
			st := m.stage(name)
			for i := range st.status {
				if st.status[i] == tDone && st.executor[i] >= 0 && c.cl.MachineOf(st.executor[i]) == id {
					lost = append(lost, TaskRef{Job: jobID, Stage: name, Index: i})
				}
			}
		}
	}
	c.opts.Obs.CacheWorkerLost(int(id))
	c.deferSchedule = true
	for _, ref := range lost {
		m := c.jobs[ref.Job]
		if m == nil || m.failed || m.done {
			continue
		}
		c.degradeEdges(m, ref.Stage)
		c.TaskOutputLost(ref)
	}
	c.deferSchedule = false
	c.schedule()
}

// degradeEdges switches Cache-Worker-dependent shuffle modes (Local,
// Remote) of a stage's out-edges to Direct after the hosting Cache Worker
// died, emitting one action per degraded edge.
func (c *Controller) degradeEdges(m *monitor, stage string) {
	for _, e := range m.job.Out(stage) {
		k := edgeKey{e.From, e.To}
		old := m.modes[k]
		if old != shuffle.Local && old != shuffle.Remote {
			continue
		}
		m.modes[k] = shuffle.Direct
		c.emit(ActShuffleDegraded{Job: m.job.ID, From: e.From, To: e.To, Old: old, New: shuffle.Direct})
	}
}

// ExecutorRestarted handles an executor process reporting a fresh start
// (the lazy self-reporting channel of Section IV-A): whatever task the
// controller believed was running there has died.
func (c *Controller) ExecutorRestarted(e cluster.ExecutorID) {
	for _, jobID := range c.order {
		m := c.jobs[jobID]
		if m == nil || m.failed || m.done {
			continue
		}
		for _, name := range m.job.StageNames() {
			st := m.stage(name)
			for i := range st.status {
				if st.status[i] == tRunning && st.executor[i] == e {
					c.TaskFailed(TaskRef{Job: jobID, Stage: name, Index: i}, st.attempt[i], FailCrash)
					return
				}
			}
		}
	}
}

// restartJob implements the JobRestart baseline policy: abort everything
// and start over from the first graphlet.
func (c *Controller) restartJob(m *monitor) {
	c.abortAll(m)
	m.restarts++
	// abortAll released every running task to pending, so only completed
	// tasks change aggregate state in the wholesale reset below.
	doneTasks := 0
	for _, st := range m.stages {
		doneTasks += st.done
	}
	c.snapDelta(m, doneTasks, 0, -doneTasks)
	for _, st := range m.stages {
		st.reset()
	}
	// Drop queued items of this job and rebuild graphlet runs.
	var q []reqItem
	for _, it := range c.queue {
		if it.m != m {
			q = append(q, it)
		} else {
			m.tc.Queued--
		}
	}
	c.queue = q
	c.dropDisordered(m)
	m.gruns = c.buildGraphletRuns(m)
	c.emit(ActJobRestarted{Job: m.job.ID})
	c.enqueueReady(m)
	c.schedule()
}

// abortAll aborts every running task of a job and releases its executors.
func (c *Controller) abortAll(m *monitor) {
	for _, name := range m.job.StageNames() {
		st := m.stage(name)
		for i := range st.status {
			if st.status[i] == tRunning {
				ref := TaskRef{Job: m.job.ID, Stage: name, Index: i}
				c.emit(ActAbortTask{Task: ref, Executor: st.executor[i], Attempt: st.attempt[i]})
				c.releaseRunning(m, st, i)
			}
		}
	}
}

// dropDisordered removes a job's graphlet runs from the disordered count
// (they are being discarded: job restart or abandonment).
func (c *Controller) dropDisordered(m *monitor) {
	for _, run := range m.gruns {
		if run.disordered {
			run.disordered = false
			c.disorderedRuns--
		}
	}
}

// CancelJob aborts a live job on client request: every running task is
// aborted, executors return to the pool, and the job leaves the live set
// as failed with the given reason.
func (c *Controller) CancelJob(job, reason string) error {
	m := c.jobs[job]
	if m == nil {
		return fmt.Errorf("core: unknown job %q", job)
	}
	if m.done || m.failed {
		return fmt.Errorf("core: job %q already terminal", job)
	}
	c.failJob(m, "cancelled: "+reason)
	return nil
}

// failJob abandons a job.
func (c *Controller) failJob(m *monitor, reason string) {
	c.abortAll(m)
	m.failed = true
	c.snapClose(m)
	c.dropDisordered(m)
	var q []reqItem
	for _, it := range c.queue {
		if it.m != m {
			q = append(q, it)
		} else {
			m.tc.Queued--
		}
	}
	c.queue = q
	c.emit(ActJobFailed{Job: m.job.ID, Reason: reason})
	c.schedule()
}
