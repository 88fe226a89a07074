package simrun

import (
	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/sim"
)

// This file is the fault-injection surface the chaos engine
// (internal/chaos) drives. Every injector models the paper's detection
// architecture (Section IV-A): the physical event happens now — tasks die,
// machines stop — but the controller only learns about it after the
// corresponding detection delay (executor error report, self-report on
// restart, or heartbeat silence). Injectors return false when the fault
// does not apply (no such running task, machine already down), so the
// chaos schedule can record skipped faults.

// SetActionHook registers an observer for every controller action the
// driver interprets, in interpretation order. Must be called before Run.
func (r *Runner) SetActionHook(fn func(sim.Time, core.Action)) { r.onAction = fn }

// SetEventHook registers a callback that fires after each controller event
// has been processed and its actions drained — the point where the
// controller's invariants must hold. Must be called before Run.
func (r *Runner) SetEventHook(fn func(sim.Time)) { r.afterEvent = fn }

// RunningTaskRefs returns the refs of all simulated running task attempts
// in sorted order, for deterministic fault targeting.
func (r *Runner) RunningTaskRefs() []core.TaskRef {
	live := r.liveTasks(func(*runningTask) bool { return true })
	out := make([]core.TaskRef, len(live))
	for i, rt := range live {
		out[i] = rt.ref()
	}
	return out
}

// CrashMachine kills a machine now: every task running there dies
// immediately, but the controller only learns of the crash after the
// heartbeat-based detection delay, during which it may even launch new
// tasks onto the corpse (black holes, recovered at detection). Returns
// false if the machine is already down.
func (r *Runner) CrashMachine(id cluster.MachineID) bool {
	if r.down[id] {
		return false
	}
	r.down[id] = true
	for _, rt := range r.liveTasks(func(rt *runningTask) bool { return r.cl.MachineOf(rt.executor) == id }) {
		r.kill(rt)
	}
	r.eng.After(heartbeatInterval(r.cl.NumMachines()), func() {
		if !r.down[id] || r.cl.Machine(id).Health == cluster.Failed {
			return // rebooted first, or detected via another path
		}
		r.ctrl.MachineFailed(id)
		r.handleActions()
	})
	return true
}

// RebootMachine brings a crashed machine back. If the crash was still
// undetected, detection is forced first so the controller's view stays
// consistent (a machine cannot rejoin a pool it never left). Returns false
// if the machine is not down.
func (r *Runner) RebootMachine(id cluster.MachineID) bool {
	if !r.down[id] {
		return false
	}
	if r.cl.Machine(id).Health != cluster.Failed {
		r.ctrl.MachineFailed(id)
		r.handleActions()
	}
	r.down[id] = false
	r.ctrl.MachineRecovered(id)
	r.handleActions()
	return true
}

// MarkUnhealthy drives the health monitor's unhealthy→read-only transition
// for a machine (it keeps running its tasks but gets no new ones). Returns
// false if the machine is down or already non-healthy.
func (r *Runner) MarkUnhealthy(id cluster.MachineID) bool {
	if r.down[id] || r.cl.Machine(id).Health != cluster.Healthy {
		return false
	}
	r.ctrl.MachineUnhealthy(id)
	r.handleActions()
	return true
}

// RecoverMachine re-admits a read-only machine after its healthy
// observation window. Crashed machines come back via RebootMachine instead.
func (r *Runner) RecoverMachine(id cluster.MachineID) bool {
	if r.down[id] || r.cl.Machine(id).Health != cluster.ReadOnly {
		return false
	}
	r.ctrl.MachineRecovered(id)
	r.handleActions()
	return true
}

// CrashTask kills one running task attempt now; the executor reports the
// error after taskErrorReportDelay. kind distinguishes infrastructure
// crashes from application errors (which abort the whole job, Section
// IV-C). Returns false if the task is not running.
func (r *Runner) CrashTask(ref core.TaskRef, kind core.FailureKind) bool {
	_, attempt, ok := r.ctrl.RunningTask(ref)
	if !ok {
		return false
	}
	if rt := r.task(ref); rt != nil && rt.attempt == attempt {
		r.kill(rt)
	}
	r.eng.After(taskErrorReportDelay, func() {
		r.ctrl.TaskFailed(ref, attempt, kind)
		r.handleActions()
	})
	return true
}

// TimeoutTask hangs one running task attempt: it stops making progress now
// and the controller declares it dead only after a full heartbeat interval
// of silence. Returns false if the task is not running.
func (r *Runner) TimeoutTask(ref core.TaskRef) bool {
	_, attempt, ok := r.ctrl.RunningTask(ref)
	if !ok {
		return false
	}
	if rt := r.task(ref); rt != nil && rt.attempt == attempt {
		r.kill(rt)
	}
	r.eng.After(heartbeatInterval(r.cl.NumMachines()), func() {
		r.ctrl.TaskFailed(ref, attempt, core.FailCrash)
		r.handleActions()
	})
	return true
}

// RestartExecutor kills one executor process: its running task (if any)
// dies now, and the fresh process self-reports after selfReportDelay — the
// fast detection channel. Returns true always; restarting an idle executor
// is a valid (harmless) fault.
func (r *Runner) RestartExecutor(e cluster.ExecutorID) bool {
	for _, rt := range r.liveTasks(func(rt *runningTask) bool { return rt.executor == e }) {
		r.kill(rt)
	}
	r.eng.After(selfReportDelay, func() {
		r.ctrl.ExecutorRestarted(e)
		// The controller may have launched onto the fresh process before
		// the self-report and failed that attempt now, without an abort:
		// the attempt dies here, before a relaunch takes its slot.
		for _, rt := range r.liveTasks(func(rt *runningTask) bool { return rt.executor == e }) {
			if _, attempt, ok := r.ctrl.RunningTask(rt.ref()); !ok || attempt != rt.attempt {
				r.kill(rt)
			}
		}
		r.handleActions()
	})
	return true
}

// LoseOutput destroys the buffered output of one completed task (a Cache
// Worker evicting or dying partially); the controller applies the "no step
// taken" rule immediately.
func (r *Runner) LoseOutput(ref core.TaskRef) {
	r.ctrl.TaskOutputLost(ref)
	r.handleActions()
}

// CrashCacheWorker kills one machine's Cache Worker process without taking
// the machine down: every output hosted there is lost at once and affected
// shuffle edges degrade to Direct. Returns false if the machine is down
// (its worker is already gone with it).
func (r *Runner) CrashCacheWorker(id cluster.MachineID) bool {
	if r.down[id] {
		return false
	}
	r.ctrl.CacheWorkerLost(id)
	r.handleActions()
	return true
}

// SlowTask stretches a running task attempt by factor (> 1): a straggler.
// If the finish is already armed, the remaining work is rescheduled factor
// times further out; if the task is still parked on inputs, the slowdown
// applies when its processing is finally scheduled. Returns false if the
// task is not running.
func (r *Runner) SlowTask(ref core.TaskRef, factor float64) bool {
	rt := r.task(ref)
	if rt == nil || factor <= 1 {
		return false
	}
	rt.slow *= factor
	if rt.armSeq != 0 {
		now := r.eng.Now()
		remaining := rt.finishAt - now
		if remaining < 0 {
			remaining = 0
		}
		r.armFinish(rt, now+sim.Time(float64(remaining)*factor))
	}
	return true
}

// RunBounded executes the simulation up to the horizon with a step budget,
// returning the final time and whether the event queue quiesced (false
// indicates a livelock: events kept firing until the budget ran out).
func (r *Runner) RunBounded(horizon sim.Time, maxSteps int64) (sim.Time, bool) {
	end, quiesced := r.eng.RunBounded(horizon, maxSteps)
	r.results.Makespan = end
	r.results.ExecSeries = r.series
	return end, quiesced
}

// Results returns the accumulated results without running further, for
// bounded chaos runs that end via RunBounded.
func (r *Runner) Results() *Results { return r.results }
