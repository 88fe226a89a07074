package simrun

import (
	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/sim"
)

// handleActions drains the controller and interprets each action under the
// cost model. It must be called after every controller event.
func (r *Runner) handleActions() {
	for _, a := range r.ctrl.Drain() {
		if r.onAction != nil {
			r.onAction(r.eng.Now(), a)
		}
		switch a.Kind {
		case core.ActStartTask:
			r.startTask(&a)
		case core.ActAbortTask:
			r.abortTask(&a)
		case core.ActResend:
			if jr := r.job(&a); jr != nil {
				jr.res.Resends++
			}
		case core.ActJobCompleted:
			r.retire(r.job(&a)).Completed = true
		case core.ActJobFailed:
			r.retire(r.job(&a)).Failed = true
		case core.ActJobRestarted:
			jr := r.job(&a)
			jr.res.Restarts++
			// All progress is discarded: stage completions and
			// first-start marks reset.
			for i := range jr.stages {
				jr.stages[i].done, jr.stages[i].started = false, false
			}
		case core.ActMachineReadOnly:
			// The health monitor drained this machine. With a configured
			// observation window, re-admit it once the window passes and
			// it is still alive and still read-only.
			if r.cfg.ReadmitDelay > 0 {
				id := a.Detail.Machine
				r.eng.After(r.cfg.ReadmitDelay, func() {
					if r.down[id] || r.cl.Machine(id).Health != cluster.ReadOnly {
						return
					}
					r.ctrl.MachineRecovered(id)
					r.handleActions()
				})
			}
		case core.ActMachineHealthy, core.ActShuffleDegraded:
			// Allocation/shuffle-mode side effects only; the degraded
			// re-run cost is dominated by the re-execution itself.
		case core.ActReplicate:
			// Replica copies ride the cost model (Breakdown.Replicate via
			// shuffle.Price), not per-action charging; the controller
			// already tracks the homes for recovery.
		}
	}
	if r.afterEvent != nil {
		r.afterEvent(r.eng.Now())
	}
}

// job returns the live job an action names: by its handle, or by name for
// a job the controller failed inside SubmitJob.
func (r *Runner) job(a *core.Action) *jobRun {
	if uint(a.Job) < uint(len(r.handles)) {
		if jr := r.handles[a.Job]; jr != nil {
			return jr
		}
	}
	return r.jobs[a.Task.Job]
}

// retire stamps a job's terminal action on its result and drops the
// job's tables: only the JobResult in Results.Jobs stays.
func (r *Runner) retire(jr *jobRun) *JobResult {
	jr.res.Finish = r.eng.Now()
	delete(r.jobs, jr.job.ID)
	if jr.handle != 0 {
		r.handles[jr.handle] = nil
	}
	return jr.res
}

// startTask begins simulating one task attempt: charge launch cost, park on
// incomplete producer stages, and schedule completion once inputs are ready.
func (r *Runner) startTask(a *core.Action) {
	jr := r.handles[a.Job]
	sr := &jr.stages[a.Stage]
	now := r.eng.Now()
	if !sr.started {
		sr.started, sr.firstStart = true, now
	}
	if sr.tasks == nil {
		sr.tasks = make([]*runningTask, sr.size)
	}
	if old := sr.tasks[a.Task.Index]; old != nil {
		r.kill(old) // the controller has moved on from that attempt
	}
	rt := r.newTask()
	*rt = runningTask{r: r, jr: jr, stage: a.Stage, index: int32(a.Task.Index), executor: a.Executor,
		attempt: int(a.Attempt), started: now, launch: r.launchCost(sr, jr.costs[a.Stage].Launch, a.Executor), slow: 1}
	sr.tasks[rt.index] = rt
	jr.live++
	r.live++
	r.series.Delta(now.Seconds(), +1)
	if r.down[r.cl.MachineOf(a.Executor)] {
		// The controller launched onto a machine that is already dead but
		// not yet detected: the task is a black hole. It never finishes;
		// the delayed MachineFailed aborts and re-runs it.
		return
	}
	for _, e := range sr.in {
		if !r.ctrl.StageComplete(jr.handle, e.from) {
			from := &jr.stages[e.from]
			rt.unmet++
			from.parked = append(from.parked, parkedTask{rt.stage, rt.index, rt.attempt})
		}
	}
	if rt.unmet == 0 {
		r.scheduleFinish(rt)
	}
}

// launchCost returns the task-launching phase duration: the priced launch,
// plus, for cold-launch systems (Spark), downloading packages and starting
// an executor once per (stage, executor).
func (r *Runner) launchCost(sr *stageRun, launch float64, e cluster.ExecutorID) float64 {
	if r.cfg.Options.ColdLaunch && !sr.launched[e] {
		if sr.launched == nil {
			sr.launched = make(map[cluster.ExecutorID]bool)
		}
		sr.launched[e] = true
		launch += r.cl.Model().ColdLaunch
	}
	return launch
}

// abortTask cancels a simulated task attempt (stale completions are
// filtered by attempt number).
func (r *Runner) abortTask(a *core.Action) {
	if jr := r.job(a); jr != nil {
		if tasks := jr.stages[a.Stage].tasks; tasks != nil {
			if rt := tasks[a.Task.Index]; rt != nil && rt.attempt == int(a.Attempt) {
				r.kill(rt)
			}
		}
	}
}

// processJitter is the ± fraction applied to per-task processing time.
const processJitter = 0.05

// scheduleFinish computes the task's completion time now that its inputs
// are (or are about to be) available, then arms the finish event.
func (r *Runner) scheduleFinish(rt *runningTask) {
	now := r.eng.Now()
	c := &rt.jr.costs[rt.stage]
	jitter := 1 + processJitter*(2*r.eng.Rand().Float64()-1)
	rt.process = c.Process * jitter * rt.slow
	rt.read = c.Scan + c.Read
	rt.write = c.Write

	effStart := rt.started + sim.FromSeconds(rt.launch)
	if now > effStart {
		effStart = now
	}
	rt.dataArrive = r.dataArrive(rt)
	r.armFinish(rt, effStart+sim.FromSeconds(rt.read+rt.process+rt.write))
}

// armFinish schedules (or reschedules) a task's completion at finishAt.
// The new event's seq supersedes any finish armed before, so straggler
// injection can stretch a task that is already counting down.
func (r *Runner) armFinish(rt *runningTask, finishAt sim.Time) {
	rt.finishAt = finishAt
	rt.armSeq = r.eng.Schedule(finishAt, rt)
}

// finishTask is the armed completion of one attempt: record its sample,
// tell the controller, interpret what the controller decides, and unpark
// whoever waited for the stage.
func (r *Runner) finishTask(rt *runningTask) {
	jr, stage, index, attempt := rt.jr, int(rt.stage), int(rt.index), rt.attempt
	sr := &jr.stages[stage]
	ref := rt.ref()
	if jr.res.Samples == nil {
		jr.res.Samples = make([]TaskSample, 0, jr.numTasks)
	}
	jr.res.Samples = append(jr.res.Samples, TaskSample{
		Ref:        ref,
		Start:      rt.started,
		DataArrive: rt.dataArrive,
		Finish:     r.eng.Now(),
		Attempt:    attempt,
	})
	r.recordPhases(jr, sr, rt.launch, rt.read, rt.process, rt.write)
	// The driver owns the finish event — only it knows the phase
	// breakdown — while the controller records everything else.
	r.cfg.Options.Obs.TaskFinished(ref.Job, ref.Stage, ref.Index, attempt,
		int(rt.executor), rt.launch, rt.read, rt.process, rt.write)
	r.kill(rt) // recycles the record: nothing below reads it
	r.ctrl.FinishTask(jr.handle, stage, index, attempt)
	r.handleActions()
	r.onStageProgress(jr, stage)
}

// dataArrive estimates when the task's input data became available: for
// pipeline edges the producer starts streaming shortly after it launches;
// for barrier edges the data is complete only when the producer stage
// finishes.
func (r *Runner) dataArrive(rt *runningTask) sim.Time {
	arrive := rt.started
	const streamDelay = 100 * sim.Millisecond
	stages := rt.jr.stages
	for _, e := range stages[rt.stage].in {
		from := &stages[e.from]
		t := r.eng.Now()
		if e.pipeline {
			if from.started {
				t = from.firstStart
			}
			t += streamDelay
		} else if from.done {
			t = from.doneAt
		}
		if t > arrive {
			arrive = t
		}
	}
	return arrive
}

func (r *Runner) recordPhases(jr *jobRun, sr *stageRun, launch, read, process, write float64) {
	p := sr.phases
	if p == nil {
		p = &StagePhases{}
		sr.phases = p
		jr.res.Phases[sr.name] = p
	}
	if launch > p.Launch {
		p.Launch = launch
	}
	if read > p.ShuffleRead {
		p.ShuffleRead = read
	}
	if process > p.Process {
		p.Process = process
	}
	if write > p.ShuffleWrite {
		p.ShuffleWrite = write
	}
}

// onStageProgress checks whether a stage just completed and unparks the
// tasks waiting on it. A job that completed in the same event has left the
// controller, and every stage of it is complete.
func (r *Runner) onStageProgress(jr *jobRun, stage int) {
	sr := &jr.stages[stage]
	if !jr.res.Completed && !r.ctrl.StageComplete(jr.handle, stage) {
		return
	}
	sr.done, sr.doneAt = true, r.eng.Now()
	waiters := sr.parked
	sr.parked = nil
	// A task slot can be listed more than once — an attempt parked, died,
	// and its successor parked again — or be listed only by a dead attempt
	// while its successor started after the stage completed and waits for
	// other stages. So first mark the live attempts that have an entry of
	// their own, then release each marked attempt at its slot's first
	// entry: the order finishes are scheduled in decides the order the
	// jitter source is drawn from.
	r.sweeps++
	for _, w := range waiters {
		if rt := jr.stages[w.stage].tasks[w.index]; rt != nil && rt.attempt == w.attempt {
			rt.sweep = r.sweeps
		}
	}
	for _, w := range waiters {
		rt := jr.stages[w.stage].tasks[w.index]
		if rt == nil || rt.sweep != r.sweeps {
			continue
		}
		rt.sweep = 0
		rt.unmet--
		if rt.unmet == 0 {
			r.scheduleFinish(rt)
		}
	}
}

// InjectTaskFailureAt injects a failure into a task of the named stage at
// the given virtual time, modeling the paper's Fig. 14 experiment. If a
// task of the stage is running, it crashes (detected after the executor
// error-report delay); if the stage already finished, the failure destroys
// a completed task's buffered output instead (detected via heartbeat).
func (r *Runner) InjectTaskFailureAt(at sim.Time, job, stage string, kind core.FailureKind) {
	r.eng.At(at, func() {
		jr := r.jobs[job]
		if jr == nil && r.results.Jobs[job] == nil {
			return // never submitted
		}
		tasks := 0 // a retired job runs nothing
		if jr != nil {
			st := jr.job.Stage(stage)
			if st == nil {
				return
			}
			tasks = st.Tasks
		}
		for i := 0; i < tasks; i++ {
			ref := core.TaskRef{Job: job, Stage: stage, Index: i}
			if _, attempt, ok := r.ctrl.RunningTask(ref); ok {
				r.eng.After(taskErrorReportDelay, func() {
					if rt := r.task(ref); rt != nil && rt.attempt == attempt {
						r.kill(rt)
					}
					r.ctrl.TaskFailed(ref, attempt, kind)
					r.handleActions()
				})
				return
			}
		}
		// No running task: lose the first completed task's output. The
		// controller ignores the report for a retired job.
		ref := core.TaskRef{Job: job, Stage: stage, Index: 0}
		r.eng.After(selfReportDelay, func() {
			r.ctrl.TaskOutputLost(ref)
			r.handleActions()
		})
	})
}

// Run executes the simulation to quiescence and returns the results.
func (r *Runner) Run() *Results {
	r.results.Makespan = r.eng.Run()
	r.results.ExecSeries = r.series
	return r.results
}
