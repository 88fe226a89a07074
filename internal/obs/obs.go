// Package obs is the deterministic observability plane: a span/event
// recorder threaded through the controller, the discrete-event simulator,
// the shuffle store and the chaos engine. Everything it captures is a pure
// function of the simulation seed — the recorder only observes (it never
// feeds back into scheduling), timestamps come from the simulated clock,
// and every export iterates in deterministic order — so two runs of the
// same seed produce byte-identical traces (the same discipline the chaos
// engine's FNV trace hash enforces, and what lets "where did job J's 40
// seconds go?" be answered reproducibly for any simrun or chaos soak).
//
// The recorder's event stream exports three ways: Chrome trace-event JSON
// (WriteChromeTrace; loadable in Perfetto / about://tracing) with per-job
// processes, per-graphlet and per-task-attempt spans on executor
// timelines, a plain-text per-job critical-path breakdown
// (WriteBreakdown) splitting each job's latency into queue / launch /
// shuffle / compute / wait / recovery, and the -stats counters and
// task-work histogram (WriteReport), derived from the stream at report
// time so recording an event writes only the slice.
//
// A nil *Recorder is valid and records nothing: call sites thread the
// recorder unconditionally and pay one nil check when observability is
// off, which is also what guarantees recording cannot perturb scheduling
// outcomes. A hash-only recorder (NewHash) folds each event into the
// stream hash as it arrives and keeps none, so a run asked only for its
// determinism witness holds no event stream in memory.
package obs

import (
	"math"
	"strconv"

	"swift/internal/sim"
)

// Kind classifies one recorded event.
type Kind uint8

// Event kinds. Job/graphlet/task events carry the identifiers named on
// them; machine events carry Machine; Label holds the kind-specific tag
// (shuffle mode, failure kind, start reason, fault kind).
const (
	// EvJobSubmit marks job admission (stage/task/graphlet counts in
	// Index/Attempt/Graphlet order: stages, tasks, graphlets).
	EvJobSubmit Kind = iota
	// EvJobDone marks successful job completion.
	EvJobDone
	// EvJobFail marks job abandonment; Label holds the reason.
	EvJobFail
	// EvJobRestart marks the JobRestart recovery policy resetting a job.
	EvJobRestart
	// EvGraphletQueued marks a graphlet registering with the resource
	// scheduler (fresh admission or recovery requeue); Index holds the
	// pending-task count.
	EvGraphletQueued
	// EvGraphletDone marks a graphlet finishing its last task.
	EvGraphletDone
	// EvTaskStart marks a task attempt launching on an executor; Label
	// holds the start reason (fresh/retry/cascade).
	EvTaskStart
	// EvTaskFinish marks a successful task attempt completion and carries
	// the phase breakdown (Launch/Read/Process/Write seconds).
	EvTaskFinish
	// EvTaskAbort marks the controller cancelling a running attempt.
	EvTaskAbort
	// EvTaskFail marks a detected task failure; Label holds the failure
	// kind (crash/app-error) and detection channel.
	EvTaskFail
	// EvOutputLost marks a completed task's buffered output being lost;
	// Label is "no-step" when no recovery step was needed, "rerun" when
	// the task re-runs.
	EvOutputLost
	// EvResend marks surviving producers replaying buffered output to a
	// relaunched idempotent task; Stage is the receiving task's stage and
	// Label the producing stage.
	EvResend
	// EvShuffleMode marks the shuffle mode selected for an edge at
	// admission; Stage→To name the edge, Label the mode, Bytes the edge
	// bytes and Index the shuffle edge size (M×N links).
	EvShuffleMode
	// EvShuffleDegraded marks a Cache-Worker-dependent edge falling back
	// after a worker crash; Label holds "old->new".
	EvShuffleDegraded
	// EvMachineFailed marks heartbeat-detected machine death.
	EvMachineFailed
	// EvMachineReadOnly marks the health monitor draining a machine.
	EvMachineReadOnly
	// EvMachineHealthy marks a machine re-admitted to the pool.
	EvMachineHealthy
	// EvCacheWorkerLost marks a machine's Cache Worker process dying while
	// the machine survives.
	EvCacheWorkerLost
	// EvFault marks a chaos-engine fault being applied; Label holds the
	// fault kind and the target description.
	EvFault
	// EvReclaim marks the scheduling policy reclaiming a whole running
	// graphlet from an over-share tenant; Index holds the number of
	// running tasks aborted and Label the victim tenant.
	EvReclaim
	// EvTenantShare records one tenant's deserved share at a preemption
	// decision point; Label holds the tenant, Index the running-task
	// count, and Process the fractional deserved share in executors.
	EvTenantShare
	// EvReplicate marks a finished task's buffered output being replicated
	// to extra Cache Workers; Graphlet holds the copy count and Machine the
	// primary replica's machine.
	EvReplicate
	// EvReplicaServed marks recovery promoting a surviving replica after
	// the serving copy's worker died — no recompute needed; Machine holds
	// the new serving machine.
	EvReplicaServed
)

// kindCounters holds each kind's -stats counter name, "event." + the
// kind's name.
var kindCounters = [...]string{
	EvJobSubmit:       "event.job_submit",
	EvJobDone:         "event.job_done",
	EvJobFail:         "event.job_fail",
	EvJobRestart:      "event.job_restart",
	EvGraphletQueued:  "event.graphlet_queued",
	EvGraphletDone:    "event.graphlet_done",
	EvTaskStart:       "event.task_start",
	EvTaskFinish:      "event.task_finish",
	EvTaskAbort:       "event.task_abort",
	EvTaskFail:        "event.task_fail",
	EvOutputLost:      "event.output_lost",
	EvResend:          "event.resend",
	EvShuffleMode:     "event.shuffle_mode",
	EvShuffleDegraded: "event.shuffle_degraded",
	EvMachineFailed:   "event.machine_failed",
	EvMachineReadOnly: "event.machine_readonly",
	EvMachineHealthy:  "event.machine_healthy",
	EvCacheWorkerLost: "event.cacheworker_lost",
	EvFault:           "event.fault",
	EvReclaim:         "event.reclaim",
	EvTenantShare:     "event.tenant_share",
	EvReplicate:       "event.replicate",
	EvReplicaServed:   "event.replica_served",
}

// String names the kind for counters and hashes.
func (k Kind) String() string {
	if int(k) >= len(kindCounters) {
		return "invalid"
	}
	return kindCounters[k][len("event."):]
}

// Event is one recorded observation. Fields not meaningful for a kind are
// zero; see the Kind constants for which fields each kind carries.
type Event struct {
	T        sim.Time
	Kind     Kind
	Job      string
	Stage    string // task stage, or edge source for shuffle events
	To       string // edge target for shuffle events
	Index    int    // task index, or kind-specific count
	Attempt  int
	Graphlet int
	Executor int // -1 when unknown
	Machine  int // -1 when unknown
	Label    string
	Bytes    int64
	// Phase breakdown in seconds (EvTaskFinish only).
	Launch, Read, Process, Write float64
}

// Recorder accumulates the event stream. The zero value is not used; call
// New or NewHash. A nil *Recorder is a valid, disabled recorder: every
// method no-ops.
type Recorder struct {
	clock  func() sim.Time
	events []Event
	hash   *streamHash // non-nil for a hash-only recorder, which keeps no events
}

// New returns an enabled recorder that keeps every event. The clock reads
// zero until SetClock is called (drivers point it at the simulation
// engine's virtual clock).
func New() *Recorder { return &Recorder{} }

// NewHash returns an enabled recorder that folds each event into its
// StreamHash as it is recorded and keeps none: Events is empty and the
// exports see an empty stream.
func NewHash() *Recorder { return &Recorder{hash: &streamHash{h: fnv1aOffset}} }

// SetClock installs the virtual-time source used to stamp events. The
// simrun driver points it at its engine's Now.
func (r *Recorder) SetClock(fn func() sim.Time) {
	if r == nil {
		return
	}
	r.clock = fn
}

// Enabled reports whether the recorder actually records.
func (r *Recorder) Enabled() bool { return r != nil }

// Events returns the recorded stream (the recorder's own slice; callers
// must not mutate it).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

func (r *Recorder) now() sim.Time {
	if r.clock == nil {
		return 0
	}
	return r.clock()
}

func (r *Recorder) rec(e Event) {
	if r == nil {
		return
	}
	e.T = r.now()
	if r.hash != nil {
		r.hash.fold(&e)
		return
	}
	r.events = append(r.events, e)
}

// JobSubmitted records job admission.
func (r *Recorder) JobSubmitted(job string, stages, tasks, graphlets int) {
	r.rec(Event{Kind: EvJobSubmit, Job: job, Index: stages, Attempt: tasks, Graphlet: graphlets, Executor: -1, Machine: -1})
}

// JobCompleted records successful completion.
func (r *Recorder) JobCompleted(job string) {
	r.rec(Event{Kind: EvJobDone, Job: job, Executor: -1, Machine: -1})
}

// JobFailed records abandonment.
func (r *Recorder) JobFailed(job, reason string) {
	r.rec(Event{Kind: EvJobFail, Job: job, Label: reason, Executor: -1, Machine: -1})
}

// JobRestarted records a JobRestart-policy reset.
func (r *Recorder) JobRestarted(job string) {
	r.rec(Event{Kind: EvJobRestart, Job: job, Executor: -1, Machine: -1})
}

// GraphletQueued records a graphlet registering with the scheduler.
func (r *Recorder) GraphletQueued(job string, g, pending int) {
	if r != nil {
		r.rec(Event{Kind: EvGraphletQueued, Job: job, Graphlet: g, Index: pending, Executor: -1, Machine: -1})
	}
}

// GraphletDone records a graphlet finishing its last task.
func (r *Recorder) GraphletDone(job string, g int) {
	if r != nil {
		r.rec(Event{Kind: EvGraphletDone, Job: job, Graphlet: g, Executor: -1, Machine: -1})
	}
}

// TaskStarted records a task attempt launching.
func (r *Recorder) TaskStarted(job, stage string, index, attempt, graphlet, executor int, reason string) {
	r.rec(Event{Kind: EvTaskStart, Job: job, Stage: stage, Index: index, Attempt: attempt,
		Graphlet: graphlet, Executor: executor, Machine: -1, Label: reason})
}

// TaskFinished records a successful attempt with its phase breakdown in
// seconds.
func (r *Recorder) TaskFinished(job, stage string, index, attempt, executor int, launch, read, process, write float64) {
	if r != nil {
		r.rec(Event{Kind: EvTaskFinish, Job: job, Stage: stage, Index: index, Attempt: attempt,
			Executor: executor, Machine: -1, Launch: launch, Read: read, Process: process, Write: write})
	}
}

// TaskAborted records a cancelled attempt.
func (r *Recorder) TaskAborted(job, stage string, index, attempt, executor int) {
	r.rec(Event{Kind: EvTaskAbort, Job: job, Stage: stage, Index: index, Attempt: attempt,
		Executor: executor, Machine: -1})
}

// TaskFailed records a detected failure with its kind/channel label.
func (r *Recorder) TaskFailed(job, stage string, index, attempt int, kind string) {
	r.rec(Event{Kind: EvTaskFail, Job: job, Stage: stage, Index: index, Attempt: attempt,
		Executor: -1, Machine: -1, Label: kind})
}

// OutputLost records a lost buffered output; disposition is "no-step" or
// "rerun".
func (r *Recorder) OutputLost(job, stage string, index int, disposition string) {
	r.rec(Event{Kind: EvOutputLost, Job: job, Stage: stage, Index: index,
		Executor: -1, Machine: -1, Label: disposition})
}

// Resend records buffered output being replayed to a relaunched task.
func (r *Recorder) Resend(job, stage string, index int, fromStage string) {
	r.rec(Event{Kind: EvResend, Job: job, Stage: stage, Index: index,
		Executor: -1, Machine: -1, Label: fromStage})
}

// ShuffleModeSelected records the admission-time mode choice for an edge.
func (r *Recorder) ShuffleModeSelected(job, from, to, mode string, edgeSize int, bytes int64) {
	r.rec(Event{Kind: EvShuffleMode, Job: job, Stage: from, To: to, Label: mode,
		Index: edgeSize, Bytes: bytes, Executor: -1, Machine: -1})
}

// ShuffleDegraded records a post-crash mode downgrade for an edge.
func (r *Recorder) ShuffleDegraded(job, from, to, oldMode, newMode string) {
	r.rec(Event{Kind: EvShuffleDegraded, Job: job, Stage: from, To: to,
		Label: oldMode + "->" + newMode, Executor: -1, Machine: -1})
}

// MachineFailed records heartbeat-detected machine death.
func (r *Recorder) MachineFailed(machine int) {
	r.rec(Event{Kind: EvMachineFailed, Machine: machine, Executor: -1})
}

// MachineReadOnly records a health-monitor drain.
func (r *Recorder) MachineReadOnly(machine int) {
	r.rec(Event{Kind: EvMachineReadOnly, Machine: machine, Executor: -1})
}

// MachineHealthy records a machine re-admitted to the pool.
func (r *Recorder) MachineHealthy(machine int) {
	r.rec(Event{Kind: EvMachineHealthy, Machine: machine, Executor: -1})
}

// CacheWorkerLost records a Cache Worker process death.
func (r *Recorder) CacheWorkerLost(machine int) {
	r.rec(Event{Kind: EvCacheWorkerLost, Machine: machine, Executor: -1})
}

// Fault records one applied chaos fault.
func (r *Recorder) Fault(kind, target string) {
	r.rec(Event{Kind: EvFault, Label: kind + "|" + target, Executor: -1, Machine: -1})
}

// GangReclaimed records the policy layer reclaiming a running graphlet
// from an over-share tenant: aborted counts the running tasks returned to
// pending.
func (r *Recorder) GangReclaimed(job string, g, aborted int, tenant string) {
	r.rec(Event{Kind: EvReclaim, Job: job, Graphlet: g, Index: aborted,
		Label: tenant, Executor: -1, Machine: -1})
}

// TenantShare records one tenant's deserved share at a preemption
// decision point.
func (r *Recorder) TenantShare(tenant string, running int, deserved float64) {
	r.rec(Event{Kind: EvTenantShare, Label: tenant, Index: running,
		Process: deserved, Executor: -1, Machine: -1})
}

// Replicated records a finished task's output being copied to extra Cache
// Workers; copies is the total copy count (primary included), machine the
// primary's machine.
func (r *Recorder) Replicated(job, stage string, index, attempt, copies, machine int) {
	r.rec(Event{Kind: EvReplicate, Job: job, Stage: stage, Index: index, Attempt: attempt,
		Graphlet: copies, Machine: machine, Executor: -1})
}

// ReplicaServed records recovery failing a read over to a surviving
// replica instead of recomputing; machine is the new serving machine.
func (r *Recorder) ReplicaServed(job, stage string, index, machine int) {
	r.rec(Event{Kind: EvReplicaServed, Job: job, Stage: stage, Index: index,
		Machine: machine, Executor: -1})
}

// FNV-1a, the same construction the chaos auditor uses for its trace hash.
const (
	fnv1aOffset = 14695981039346656037
	fnv1aPrime  = 1099511628211
)

// streamHash is the FNV-1a state of an event stream, with the buffer each
// event's line is formatted into.
type streamHash struct {
	h   uint64
	buf []byte
}

// fold hashes e's line: its fields '|'-separated in declaration order
// (Kind by name, floats in shortest 'g' form), ending in a newline.
func (s *streamHash) fold(e *Event) {
	b := strconv.AppendInt(s.buf[:0], int64(e.T), 10)
	b = append(append(b, '|'), e.Kind.String()...)
	for _, f := range [...]string{e.Job, e.Stage, e.To} {
		b = append(append(b, '|'), f...)
	}
	for _, n := range [...]int{e.Index, e.Attempt, e.Graphlet, e.Executor, e.Machine} {
		b = strconv.AppendInt(append(b, '|'), int64(n), 10)
	}
	b = append(append(b, '|'), e.Label...)
	b = strconv.AppendInt(append(b, '|'), e.Bytes, 10)
	for _, f := range [...]float64{e.Launch, e.Read, e.Process, e.Write} {
		if b = append(b, '|'); f == 0 && !math.Signbit(f) {
			b = append(b, '0') // most kinds carry no phases
		} else {
			b = strconv.AppendFloat(b, f, 'g', -1, 64)
		}
	}
	b = append(b, '\n')
	for _, c := range b {
		s.h ^= uint64(c)
		s.h *= fnv1aPrime
	}
	s.buf = b
}

// StreamHash folds every recorded event into an FNV-1a hash: the
// determinism witness. Two runs of the same seed must produce identical
// hashes (and, stronger, byte-identical exports). A hash-only recorder
// has folded its events as they arrived; a full one folds its kept events
// here, so recording an event stays an append.
func (r *Recorder) StreamHash() uint64 {
	if r == nil {
		return fnv1aOffset
	}
	if r.hash != nil {
		return r.hash.h
	}
	s := streamHash{h: fnv1aOffset}
	for i := range r.events {
		s.fold(&r.events[i])
	}
	return s.h
}
