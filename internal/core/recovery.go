package core

import (
	"fmt"
	"slices"

	"swift/internal/cluster"
	"swift/internal/shuffle"
)

const (
	// maxTaskRetries bounds recovery attempts per task before the job is
	// declared failed.
	maxTaskRetries = 3
	// unhealthyThreshold is the recent-task-failure count at which the
	// health monitor marks a machine read-only (Section IV-A).
	unhealthyThreshold = 8
)

// taskAt addresses one task of a live job by its stage's topological
// index: what the storm handlers collect before they recover anything.
type taskAt struct {
	m        *monitor
	stage, i int
}

// TaskFailed handles a detected task failure (Section IV-B). Stale attempt
// numbers are ignored.
func (c *Controller) TaskFailed(ref TaskRef, attempt int, kind FailureKind) {
	if m, si, ok := c.live(&ref); ok && c.taskFailed(m, si, ref.Index, attempt, kind) {
		c.schedule()
	}
}

// taskFailed recovers task i of stage si from a failure of the given
// attempt and reports whether that attempt was the running one.
// Application-logic errors skip recovery entirely (Section IV-C, "Avoiding
// Useless Failure Recovery").
func (c *Controller) taskFailed(m *monitor, si, i, attempt int, kind FailureKind) bool {
	st := m.stages[si]
	t := &st.tasks[i]
	if t.status != TaskRunning || t.attempt != attempt {
		return false
	}
	c.opts.Obs.TaskFailed(m.job.ID, st.spec.Name, i, attempt, kind.String())

	if kind == FailAppError {
		c.failJob(m, fmt.Sprintf("application error in %s", m.ref(si, i)))
		return true
	}

	// Track machine failure bursts for the health monitor.
	if e := t.executor; e >= 0 {
		mid := c.cl.MachineOf(e)
		if c.cl.RecordTaskFailure(mid) >= unhealthyThreshold && c.cl.Machine(mid).Health == cluster.Healthy {
			c.MachineUnhealthy(mid)
		}
	}

	if c.opts.Recovery == JobRestart {
		c.restartJob(m)
	} else {
		c.retry(m, si, i, "")
	}
	return true
}

// retry spends one of task i's retries on re-running it, or fails the job
// when the budget is gone; what says what the retries were for.
func (c *Controller) retry(m *monitor, si, i int, what string) {
	st := m.stages[si]
	t := &st.tasks[i]
	t.retries++
	if t.retries > maxTaskRetries {
		c.failJob(m, fmt.Sprintf("task %s exceeded %d retries%s", m.ref(si, i), maxTaskRetries, what))
		return
	}
	c.rerun(m, si, i)
	c.requeue(m.gruns[st.graphlet])
}

// rerun sends a failed or output-lost task back to pending for a retry.
// Non-idempotent tasks may have streamed rows that successors already
// consumed; those successors must re-run too (Fig. 6b). The cascade stays
// within the graphlet: cross-graphlet consumers read from Cache Workers
// whose contents the re-run will replace before the consumer graphlet is
// submitted (Figs. 7a/7b). The caller requeues the graphlet.
func (c *Controller) rerun(m *monitor, stage, i int) {
	c.markPending(m, stage, i, StartRetry)
	if st := m.stages[stage]; !st.spec.Idempotent {
		c.cascade(m, stage, st.graphlet, nil)
	}
}

// preempt aborts a running task that is not at fault (the deadlock
// breaker's victim, a reclaimed gang's task) and re-runs it: the retry
// budget is untouched, and a non-idempotent victim cascades exactly like
// a failed one. The caller requeues the graphlet.
func (c *Controller) preempt(m *monitor, stage, i int) {
	c.abort(m, stage, i)
	c.rerun(m, stage, i)
}

// abort emits the abort of the latest attempt of task i of stage s.
func (c *Controller) abort(m *monitor, s, i int) {
	t := &m.stages[s].tasks[i]
	c.emit(Action{Kind: ActAbortTask, Job: m.handle, Stage: int32(s), Task: m.ref(s, i),
		Executor: t.executor, Attempt: int32(t.attempt)})
}

// cascade re-runs every started task of the successor stages of `stage`
// within graphlet g, transitively, aborting the running ones. Callers pass
// nil for visited.
func (c *Controller) cascade(m *monitor, stage, g int, visited []bool) {
	if visited == nil {
		visited = make([]bool, len(m.stages))
		visited[stage] = true
	}
	for _, e := range m.stages[stage].out {
		to := e.to
		st := m.stages[to]
		if visited[to] || st.graphlet != g {
			continue
		}
		visited[to] = true
		for i, t := range st.tasks {
			if !t.started || t.status == TaskPending {
				continue // a pending task already awaits a fresh run
			}
			if t.status == TaskRunning {
				c.abort(m, to, i)
			}
			c.markPending(m, to, i, StartCascade)
		}
		c.requeue(m.gruns[g])
		c.cascade(m, to, g, visited)
	}
}

// markPending is the one transition of a live task back to pending: it
// resets the task for re-execution with the given reason and counts it
// pending in its graphlet's run, moving the run's launch cursor back when
// the task lies behind it. A running task's executor returns to the pool;
// a done task leaves its stage's done count. A task that re-enters the
// pending state needs its input data again, so any producer whose
// buffered output was lost under the "no step taken" rule must re-run
// first; those producers are revived here, transitively up the DAG.
func (c *Controller) markPending(m *monitor, stage, i int, reason StartReason) {
	st := m.stages[stage]
	t := &st.tasks[i]
	run := m.gruns[st.graphlet]
	switch t.status {
	case TaskRunning:
		c.unlaunch(m, run, t)
	case TaskDone:
		st.done--
		run.pending++
		c.snapDelta(m, 1, 0, -1)
	case TaskPending:
		// already counted pending
	}
	t.status = TaskPending
	t.reason = reason
	t.lost = false // a re-run regenerates the output
	id := taskID{int32(stage), int32(i)}
	delete(m.homes, id) // stale copies; re-replicated at finish
	if run.nk == len(run.stages) || stage < run.stages[run.nk] || (stage == run.stages[run.nk] && i < run.ni) {
		run.nk, _ = slices.BinarySearch(run.stages, stage)
		run.ni = i
	}
	if !run.repended {
		// The scheduler's deadlock check watches for re-pended runs.
		run.repended = true
		c.repended = append(c.repended, run)
	}
	if run.status == gDone {
		run.status = gQueued
	}
	c.patchItem(run)
	c.reviveLostInputs(m, st)
}

// unlaunch returns a running task of the run to pending and its executor
// to the pool.
func (c *Controller) unlaunch(m *monitor, run *graphletRun, t *taskState) {
	t.status = TaskPending
	run.running--
	run.pending++
	c.syncGang(run)
	if t.executor >= 0 {
		c.cl.ReleaseOne(t.executor)
	}
	c.snapDelta(m, 1, -1, 0)
}

// reviveLostInputs re-runs every completed producer task of a stage whose
// buffered output was lost while "not needed" — a consumer of that output
// has just become pending again, so the data is needed after all. A
// revived stage that is not idempotent cascades, as outputLost's
// re-run does: its successors in the graphlet consumed rows the re-run
// replaces (Fig. 6b). The recursion through markPending walks producers
// upward and terminates because each revived task leaves the done+lost
// state and the DAG is acyclic.
func (c *Controller) reviveLostInputs(m *monitor, st *stageState) {
	for _, from := range st.in {
		pst := m.stages[from]
		revived := false
		for i, t := range pst.tasks {
			if t.status != TaskDone || !t.lost {
				continue
			}
			c.markPending(m, from, i, StartRetry)
			revived = true
		}
		if revived {
			if !pst.spec.Idempotent {
				c.cascade(m, from, pst.graphlet, nil)
			}
			c.requeue(m.gruns[pst.graphlet])
		}
	}
}

// eachLiveTask is the one sweep recovery uses to find tasks by where they
// ran: live jobs in submission order, stages in topological order, tasks by
// index, so the recoveries of one instant never reorder.
func (c *Controller) eachLiveTask(visit func(at taskAt, t *taskState)) {
	for _, m := range c.order {
		for s, st := range m.stages {
			for i := range st.tasks {
				visit(taskAt{m, s, i}, &st.tasks[i])
			}
		}
	}
}

// MachineFailed handles a detected machine crash: every executor on the
// machine is revoked, running tasks there fail, and completed tasks whose
// last buffered copy lived on the machine and is still needed are re-run
// (their consumers will fetch the regenerated data; Section IV-B2). The
// whole crash is one event: every victim is recovered before the one
// scheduling round, so relaunches see the full damage.
func (c *Controller) MachineFailed(id cluster.MachineID) {
	// Collect first: recovery mutates state.
	var running []taskAt
	c.eachLiveTask(func(at taskAt, t *taskState) {
		if t.status == TaskRunning && c.cl.MachineOf(t.executor) == id {
			running = append(running, at)
		}
	})
	c.cl.SetHealth(id, cluster.Failed)
	c.opts.Obs.MachineFailed(int(id))
	// Running tasks recover first: a consumer re-marked pending by that
	// pass re-needs its producers' buffered outputs, which the lost-output
	// pass below then regenerates.
	for _, v := range running {
		if v.m.failed {
			continue // an earlier victim's recovery failed the job
		}
		// An earlier victim's cascade may have aborted this one already: the
		// abort repeats, and taskFailed ignores a task no longer running.
		c.abort(v.m, v.stage, v.i)
		c.taskFailed(v.m, v.stage, v.i, v.m.stages[v.stage].tasks[v.i].attempt, FailCrash)
	}
	// outputLost applies the "no step taken" rule (or restarts the job
	// under the baseline policy).
	for _, o := range c.strike(id) {
		if !o.m.failed {
			c.outputLost(o.m, o.stage, o.i)
		}
	}
	c.schedule()
}

// strike removes a machine from the location set of every finished task's
// buffered output and returns the outputs left with no copy; they need the
// full output-lost treatment. A task without a replica row has one implicit
// home, the machine it ran on. When the serving (head) copy dies and a
// replica survives, the survivor is promoted in place — counted as a replica
// recovery, no scheduling step.
func (c *Controller) strike(id cluster.MachineID) []taskAt {
	var orphans []taskAt
	c.eachLiveTask(func(at taskAt, t *taskState) {
		if t.status != TaskDone {
			return
		}
		m := at.m
		key := taskID{int32(at.stage), int32(at.i)}
		homes := m.homes[key]
		if len(homes) == 0 {
			if c.cl.MachineOf(t.executor) == id {
				orphans = append(orphans, at)
			}
			return
		}
		pos := slices.Index(homes, id)
		if pos < 0 {
			return
		}
		homes = slices.Delete(homes, pos, pos+1)
		m.homes[key] = homes
		switch {
		case len(homes) == 0:
			orphans = append(orphans, at)
		case pos == 0:
			c.replicaHits++
			c.opts.Obs.ReplicaServed(m.job.ID, m.stages[at.stage].spec.Name, at.i, int(homes[0]))
		}
	})
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
	for _, e := range st.out {
		if pendingTasks(m.stages[e.to]) > 0 {
			return true
		}
	}
	return false
}

// TaskOutputLost reports that the buffered output of a completed task was
// lost (e.g. its Cache Worker's memory was reclaimed or the hosting process
// died without taking the machine down).
func (c *Controller) TaskOutputLost(ref TaskRef) {
	if m, si, ok := c.live(&ref); ok && c.outputLost(m, si, ref.Index) {
		c.schedule()
	}
}

// outputLost handles the loss of done task i of stage si's buffered output
// and reports whether it took a step. If every consumer already received
// the data, no step is taken; otherwise the task re-runs so consumers can
// re-fetch (the Fig. 6a / Fig. 7 semantics).
func (c *Controller) outputLost(m *monitor, si, i int) bool {
	st := m.stages[si]
	t := &st.tasks[i]
	if t.status != TaskDone {
		return false
	}
	if c.opts.Recovery == JobRestart {
		// The baseline policy restarts on any failure; the "no step
		// taken" shortcut below is Swift's fine-grained intelligence.
		c.opts.Obs.OutputLost(m.job.ID, st.spec.Name, i, "restart")
		c.restartJob(m)
		return true
	}
	// Reaching here means every copy is gone: strike found none left, or a
	// direct loss report bypassed the replicas by design (the buffer was
	// evicted fleet-wide).
	delete(m.homes, taskID{int32(si), int32(i)})
	if !c.outputStillNeeded(m, st) {
		// "No step will be taken" — but remember the loss so a consumer
		// that later re-enters the pending state revives this producer.
		t.lost = true
		c.opts.Obs.OutputLost(m.job.ID, st.spec.Name, i, "no-step")
		return false
	}
	c.opts.Obs.OutputLost(m.job.ID, st.spec.Name, i, "rerun")
	c.recomputes++
	// Regenerating a lost output is a retry like any other: without this
	// bound, an output that keeps getting lost (flapping Cache Worker,
	// repeatedly crashing machine) re-runs the task forever.
	c.retry(m, si, i, " regenerating lost output")
	return true
}

// MachineUnhealthy applies the health monitor's read-only policy: the
// machine finishes its running tasks but receives no new ones.
func (c *Controller) MachineUnhealthy(id cluster.MachineID) {
	if c.cl.Machine(id).Health != cluster.Healthy {
		return
	}
	c.cl.SetHealth(id, cluster.ReadOnly)
	c.emit(Action{Kind: ActMachineReadOnly, Detail: &ActionDetail{Machine: id}})
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
	c.emit(Action{Kind: ActMachineHealthy, Detail: &ActionDetail{Machine: id}})
	c.schedule()
}

// CacheWorkerLost handles the crash of one machine's Cache Worker process
// (the machine itself survives): every buffered copy hosted there is gone.
// Outputs with a surviving replica fail over in place; each output left
// with no copy goes through outputLost, which applies the "no step taken"
// rule per task, and shuffle edges out of its stage that depended on Cache
// Workers degrade to Direct for the regenerated data, so the re-run cannot
// be taken down by the same worker again. Like a machine crash, the storm
// is one event with one scheduling round, after all of it.
func (c *Controller) CacheWorkerLost(id cluster.MachineID) {
	c.opts.Obs.CacheWorkerLost(int(id))
	for _, o := range c.strike(id) {
		if o.m.failed {
			continue // an earlier output's recovery failed the job
		}
		c.degradeEdges(o.m, o.stage)
		c.outputLost(o.m, o.stage, o.i)
	}
	c.schedule()
}

// degradeEdges switches Cache-Worker-dependent shuffle modes (Local,
// Remote) of a stage's out-edges to Direct after the hosting Cache Worker
// died, emitting one action per degraded edge.
func (c *Controller) degradeEdges(m *monitor, stage int) {
	st := m.stages[stage]
	for k, e := range st.out {
		if e.mode != shuffle.Local && e.mode != shuffle.Remote {
			continue
		}
		st.out[k].mode = shuffle.Direct
		c.emit(Action{Kind: ActShuffleDegraded, Job: m.handle, Task: TaskRef{Job: m.job.ID},
			Detail: &ActionDetail{From: st.spec.Name, To: m.stages[e.to].spec.Name, Old: e.mode, New: shuffle.Direct}})
	}
}

// ExecutorRestarted handles an executor process reporting a fresh start
// (the lazy self-reporting channel of Section IV-A): whatever task the
// controller believed was running there has died.
func (c *Controller) ExecutorRestarted(e cluster.ExecutorID) {
	// Find, then fail: the retry may relaunch on e inside the sweep.
	var dead taskAt
	attempt := -1
	c.eachLiveTask(func(at taskAt, t *taskState) {
		if t.status == TaskRunning && t.executor == e {
			dead, attempt = at, t.attempt
		}
	})
	if attempt >= 0 && c.taskFailed(dead.m, dead.stage, dead.i, attempt, FailCrash) {
		c.schedule()
	}
}

// restartJob implements the JobRestart baseline policy: abort everything
// and start over from the first graphlet.
func (c *Controller) restartJob(m *monitor) {
	c.abortAll(m)
	// abortAll released every running task to pending, so only completed
	// tasks change aggregate state in the wholesale reset below.
	for _, st := range m.stages {
		c.snapDelta(m, st.done, 0, -st.done)
		st.reset()
	}
	m.homes = nil
	m.gruns = c.buildGraphletRuns(m)
	c.emit(Action{Kind: ActJobRestarted, Job: m.handle, Task: TaskRef{Job: m.job.ID}})
	c.enqueueReady(m)
}

// abortAll tears down a job that is being restarted or abandoned: it
// aborts every running task and releases its executor, and drops the
// job's queued resource requests and its runs on the re-pended list. The
// tasks are not re-run, so they skip markPending's queueing, and the runs
// are discarded, so their flags stay.
func (c *Controller) abortAll(m *monitor) {
	for s, st := range m.stages {
		for i := range st.tasks {
			if t := &st.tasks[i]; t.status == TaskRunning {
				c.abort(m, s, i)
				c.unlaunch(m, m.gruns[st.graphlet], t)
			}
		}
	}
	hi := -1
	for i, run := range c.queue {
		if run.m == m {
			c.drop(i)
			hi = i
		}
	}
	c.compact(hi)
	c.repended = slices.DeleteFunc(c.repended, func(run *graphletRun) bool { return run.m == m })
}

// CancelJob aborts a live job on client request: every running task is
// aborted, executors return to the pool, and the job leaves the live set
// as failed with the given reason.
func (c *Controller) CancelJob(job, reason string) error {
	m := c.jobs[job]
	if m == nil {
		if _, retired := c.retired[job]; retired {
			return fmt.Errorf("core: job %q already terminal", job)
		}
		return fmt.Errorf("core: unknown job %q", job)
	}
	c.failJob(m, "cancelled: "+reason)
	c.schedule()
	return nil
}

// failJob abandons a job.
func (c *Controller) failJob(m *monitor, reason string) {
	c.abortAll(m)
	m.failed = true
	c.snapClose(m)
	c.emit(Action{Kind: ActJobFailed, Job: m.handle, Task: TaskRef{Job: m.job.ID}, Detail: &ActionDetail{Reason: reason}})
	c.retire(m)
}
