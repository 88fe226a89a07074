package core

import (
	"fmt"

	"swift/internal/cluster"
	"swift/internal/dag"
)

// Shadow-controller support (Fig. 2: "the shadow controller mechanism is
// enabled to avoid a single point of failure"). The controller is a
// deterministic state machine, so replication is event sourcing: every
// input event is appended to a log, and replaying the log into a fresh
// controller reproduces the primary's exact state — including in-flight
// task attempts — at which point the shadow can take over and its future
// actions match what the failed primary would have emitted.
//
// ReplicatedController wraps a Controller with such a log. Snapshot-free
// event sourcing keeps the mechanism simple. A checkpoint that shortened
// the log would have to carry executor placement: replaying only the live
// jobs' events places their tasks on other executors than the primary did.

// EventKind tags a logged controller input.
type EventKind int

// Logged event kinds: one per mutating Controller method.
const (
	EvSubmitJob EventKind = iota
	EvTaskFinished
	EvTaskFailed
	EvTaskOutputLost
	EvMachineFailed
	EvMachineUnhealthy
	EvMachineRecovered
	EvCacheWorkerLost
	EvExecutorRestarted
	EvCancelJob
	numEventKinds
)

// Event is one logged controller input. Job carries the submitted DAG for
// EvSubmitJob (the log owns it; callers must not mutate it afterwards);
// EvCancelJob names its job in Task.Job.
type Event struct {
	Kind     EventKind
	Job      *dag.Job
	Task     TaskRef
	Attempt  int
	Failure  FailureKind
	Machine  cluster.MachineID
	Executor cluster.ExecutorID
	Reason   string
}

// ReplicatedController is a Controller whose inputs are logged for shadow
// replay.
type ReplicatedController struct {
	*Controller
	log []Event
}

// NewReplicatedController builds a primary with an empty event log.
func NewReplicatedController(cl *cluster.Cluster, opts Options) *ReplicatedController {
	return &ReplicatedController{Controller: NewController(cl, opts)}
}

// Log returns the event log (read-only view).
func (r *ReplicatedController) Log() []Event { return r.log }

// apply feeds one input to the wrapped controller and, unless the
// controller rejected it, appends it to the log. The live wrappers below and
// Failover's replay all go through it, so a kind cannot be applied without
// being logged, or logged without being replayable.
func (r *ReplicatedController) apply(ev Event) error {
	if ev.Kind < 0 || ev.Kind >= numEventKinds {
		return fmt.Errorf("core: unknown event kind %d", ev.Kind)
	}
	var err error
	switch ev.Kind {
	case EvSubmitJob:
		if err = r.Controller.SubmitJob(ev.Job); err == nil {
			ev.Job = ev.Job.Clone()
		}
	case EvTaskFinished:
		r.Controller.TaskFinished(ev.Task, ev.Attempt)
	case EvTaskFailed:
		r.Controller.TaskFailed(ev.Task, ev.Attempt, ev.Failure)
	case EvTaskOutputLost:
		r.Controller.TaskOutputLost(ev.Task)
	case EvMachineFailed:
		r.Controller.MachineFailed(ev.Machine)
	case EvMachineUnhealthy:
		r.Controller.MachineUnhealthy(ev.Machine)
	case EvMachineRecovered:
		r.Controller.MachineRecovered(ev.Machine)
	case EvCacheWorkerLost:
		r.Controller.CacheWorkerLost(ev.Machine)
	case EvExecutorRestarted:
		r.Controller.ExecutorRestarted(ev.Executor)
	case EvCancelJob:
		err = r.Controller.CancelJob(ev.Task.Job, ev.Reason)
	}
	if err != nil {
		return err
	}
	r.log = append(r.log, ev)
	return nil
}

// One wrapper per mutating Controller method: any left out would be promoted
// through the embedding straight past the log. Only SubmitJob and CancelJob
// can be rejected; for the rest apply's error is always nil.

func (r *ReplicatedController) SubmitJob(job *dag.Job) error {
	return r.apply(Event{Kind: EvSubmitJob, Job: job})
}

func (r *ReplicatedController) TaskFinished(ref TaskRef, attempt int) {
	_ = r.apply(Event{Kind: EvTaskFinished, Task: ref, Attempt: attempt})
}

func (r *ReplicatedController) TaskFailed(ref TaskRef, attempt int, kind FailureKind) {
	_ = r.apply(Event{Kind: EvTaskFailed, Task: ref, Attempt: attempt, Failure: kind})
}

func (r *ReplicatedController) TaskOutputLost(ref TaskRef) {
	_ = r.apply(Event{Kind: EvTaskOutputLost, Task: ref})
}

func (r *ReplicatedController) MachineFailed(id cluster.MachineID) {
	_ = r.apply(Event{Kind: EvMachineFailed, Machine: id})
}

func (r *ReplicatedController) MachineUnhealthy(id cluster.MachineID) {
	_ = r.apply(Event{Kind: EvMachineUnhealthy, Machine: id})
}

func (r *ReplicatedController) MachineRecovered(id cluster.MachineID) {
	_ = r.apply(Event{Kind: EvMachineRecovered, Machine: id})
}

func (r *ReplicatedController) CacheWorkerLost(id cluster.MachineID) {
	_ = r.apply(Event{Kind: EvCacheWorkerLost, Machine: id})
}

func (r *ReplicatedController) ExecutorRestarted(e cluster.ExecutorID) {
	_ = r.apply(Event{Kind: EvExecutorRestarted, Executor: e})
}

func (r *ReplicatedController) CancelJob(job, reason string) error {
	return r.apply(Event{Kind: EvCancelJob, Task: TaskRef{Job: job}, Reason: reason})
}

// Failover replays the log into a fresh controller over a fresh cluster of
// the same shape — the shadow taking over after the primary dies. The
// replayed controller's Drain output is discarded (those actions already
// happened under the primary); the caller resumes feeding live events and
// interpreting new actions. It returns an error if replay diverges (an
// event is rejected), which would indicate the log is corrupt.
func Failover(log []Event, ccfg cluster.Config, opts Options) (*ReplicatedController, error) {
	shadow := NewReplicatedController(cluster.New(ccfg), opts)
	for i, ev := range log {
		if err := shadow.apply(ev); err != nil {
			return nil, fmt.Errorf("core: shadow replay diverged at event %d: %w", i, err)
		}
		shadow.Controller.Drain() // actions already executed by the primary
	}
	return shadow, nil
}
