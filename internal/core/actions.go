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

// ActionKind tags what an Action instructs. Task names the task acted on;
// the job kinds set only its Job.
type ActionKind uint8

const (
	// ActStartTask launches Task on Executor. Attempt distinguishes
	// re-executions so stale completion notifications can be discarded.
	ActStartTask ActionKind = iota
	ActAbortTask            // cancels Task's running Attempt, which is obsolete
	// ActResend tells the surviving upstream tasks of Detail.FromStage to
	// replay their buffered output to Task, a re-launched idempotent task
	// ("T1 and T2 are notified to update their output channels to T4' and
	// re-send the shuffle data without re-running").
	ActResend
	ActJobCompleted // the job completed successfully
	ActJobFailed    // the job was abandoned; Detail.Reason is human-readable
	ActJobRestarted // the JobRestart recovery policy reset the job
	// ActMachineReadOnly and ActMachineHealthy report the health monitor
	// draining Detail.Machine, and re-admitting it after a healthy window or
	// a reboot.
	ActMachineReadOnly
	ActMachineHealthy
	// ActShuffleDegraded reports that the Cache-Worker-backed edge
	// Detail.From → Detail.To fell back from Detail.Old to Detail.New
	// (Local/Remote → Direct) for the re-run after a Cache Worker crash.
	ActShuffleDegraded
	// ActReplicate copies the buffered output of Task's finished Attempt to
	// Detail.Machines, in serving order: the executor's machine, then the
	// R−1 replica machines chosen on the healthy-machine ring.
	ActReplicate
)

// JobHandle is a live job's name inside the process: its index in the
// controller's handle table, issued by SubmitJob. Handle 0 is never
// issued, so a zero Action or completion names no job, and a handle is
// never reused, so a stale one names no other job once its job retired.
// Drivers key their per-job state by it; names stay at the edges.
type JobHandle int32

// Action is an instruction from the controller to the runtime driver (the
// simulator or the real engine), one value read by Kind. What a launch or
// a completion needs sits inline, so the controller emits into a reused
// buffer without allocating; the rare kinds' fields sit behind Detail.
type Action struct {
	Kind     ActionKind
	Reason   StartReason        // ActStartTask
	Graphlet int16              // ActStartTask (SubmitJob refuses more graphlets than fit)
	Attempt  int32              // ActStartTask, ActAbortTask, ActReplicate
	Stage    int32              // ActStartTask, ActAbortTask: Task.Stage's topological index (dag.Job.TopoIndex)
	Job      JobHandle          // every kind that names a job: Task.Job's handle
	Executor cluster.ExecutorID // ActStartTask, ActAbortTask
	Task     TaskRef
	Detail   *ActionDetail // nil for the kinds that need none
}

// ActionDetail carries the fields of the rare action kinds.
type ActionDetail struct {
	FromStage string
	Reason    string
	Machine   cluster.MachineID
	Machines  []cluster.MachineID
	From, To  string
	Old, New  shuffle.Mode
}

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
