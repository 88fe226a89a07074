package core

import (
	"fmt"

	"swift/internal/cluster"
	"swift/internal/shuffle"
)

// TaskRef identifies one task instance.
type TaskRef struct {
	Job   string
	Stage string
	Index int
}

// String renders the reference like "q9/M1[3]".
func (t TaskRef) String() string { return fmt.Sprintf("%s/%s[%d]", t.Job, t.Stage, t.Index) }

// StartReason explains why a task is being started.
type StartReason int8

const (
	// StartFresh is the first execution of a task.
	StartFresh StartReason = iota
	// StartRetry re-runs a failed task whose inputs must be re-read from
	// Cache Workers or re-sent by (unaffected) upstream tasks.
	StartRetry
	// StartCascade re-runs a successor of a non-idempotent failed task.
	StartCascade
)

// Action is an instruction from the controller to the runtime driver
// (the simulator or the real engine).
type Action interface{ isAction() }

// ActStartTask launches a task on an executor. Attempt distinguishes
// re-executions so stale completion notifications can be discarded.
type ActStartTask struct {
	Task     TaskRef
	Executor cluster.ExecutorID
	Graphlet int
	Attempt  int
	Reason   StartReason
}

// ActAbortTask cancels a running task (its attempt is obsolete).
type ActAbortTask struct {
	Task     TaskRef
	Executor cluster.ExecutorID
	Attempt  int
}

// ActResend tells surviving upstream tasks to replay their buffered output
// to a re-launched idempotent task ("T1 and T2 are notified to update their
// output channels to T4' and re-send the shuffle data without re-running").
type ActResend struct {
	To        TaskRef
	FromStage string
}

// ActJobCompleted reports successful job completion.
type ActJobCompleted struct{ Job string }

// ActJobFailed reports a job abandoned after an unrecoverable failure or
// retry exhaustion; Reason is human-readable.
type ActJobFailed struct {
	Job    string
	Reason string
}

// ActJobRestarted reports that the JobRestart recovery policy reset the
// job; drivers use it to account restart overhead.
type ActJobRestarted struct{ Job string }

// ActMachineReadOnly reports the health monitor draining a machine.
type ActMachineReadOnly struct{ Machine cluster.MachineID }

// ActMachineHealthy reports a machine re-admitted to the pool after a
// healthy window (read-only drain ended) or a reboot after a crash.
type ActMachineHealthy struct{ Machine cluster.MachineID }

// ActShuffleDegraded reports that a Cache-Worker-backed shuffle edge fell
// back to a mode that does not depend on the lost worker (Local/Remote →
// Direct) for the re-run after a Cache Worker crash.
type ActShuffleDegraded struct {
	Job      string
	From, To string
	Old, New shuffle.Mode
}

// ActReplicate tells the driver to copy a finished task's buffered output
// to extra Cache Workers for resilience. Machines lists the homes in
// serving order: the executor's own machine first, then the R−1 replica
// machines chosen on the healthy-machine ring.
type ActReplicate struct {
	Task     TaskRef
	Attempt  int
	Machines []cluster.MachineID
}

func (ActStartTask) isAction()       {}
func (ActAbortTask) isAction()       {}
func (ActResend) isAction()          {}
func (ActJobCompleted) isAction()    {}
func (ActJobFailed) isAction()       {}
func (ActJobRestarted) isAction()    {}
func (ActMachineReadOnly) isAction() {}
func (ActMachineHealthy) isAction()  {}
func (ActShuffleDegraded) isAction() {}
func (ActReplicate) isAction()       {}

// FailureKind classifies a task failure for recovery purposes.
type FailureKind int

const (
	// FailCrash is a recoverable infrastructure failure (process death,
	// machine crash, network partition).
	FailCrash FailureKind = iota
	// FailAppError is an application-logic failure (memory access
	// violation, missing table); re-running cannot help, so Swift
	// reports it and skips recovery (Section IV-C).
	FailAppError
)
