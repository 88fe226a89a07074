package chaos

import (
	"fmt"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/flow"
	"swift/internal/sim"
)

// maxViolations caps how many violations one run records; a broken
// invariant tends to repeat on every subsequent event.
const maxViolations = 64

// Auditor observes every controller action and event boundary of a chaos
// run. Action-stream checks (attempt monotonicity, placement legality,
// post-terminal activity) live here; deep state checks are delegated to
// the controller's own CheckInvariants at every event boundary. The
// auditor also folds each action into an FNV-1a trace hash, the
// determinism witness: two runs of the same seed must produce identical
// hashes.
type Auditor struct {
	ctrl        *core.Controller
	cl          *cluster.Cluster
	lastAttempt map[core.TaskRef]int
	terminal    map[string]string // job -> "completed" | "failed"
	flowDec     map[string]flow.Decision
	violations  []string
	hash        uint64
	quotas      map[string]int
}

// SetTenantQuotas arms the hard-quota invariant: at every state sweep, no
// listed tenant may hold more running tasks than its quota (the bound a
// quota-configured scheduling policy is supposed to enforce).
func (a *Auditor) SetTenantQuotas(quotas map[string]int) { a.quotas = quotas }

// NewAuditor attaches an auditor to a controller/cluster pair.
func NewAuditor(ctrl *core.Controller, cl *cluster.Cluster) *Auditor {
	return &Auditor{
		ctrl:        ctrl,
		cl:          cl,
		lastAttempt: make(map[core.TaskRef]int),
		terminal:    make(map[string]string),
		flowDec:     make(map[string]flow.Decision),
		hash:        fnv1aOffset,
	}
}

const (
	fnv1aOffset = 14695981039346656037
	fnv1aPrime  = 1099511628211
)

func (a *Auditor) fold(s string) {
	h := a.hash
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnv1aPrime
	}
	a.hash = h
}

// Fold mixes an out-of-band record (e.g. an applied fault) into the trace
// hash so the injected schedule is part of the determinism witness.
func (a *Auditor) Fold(s string) { a.fold(s) }

// TraceHash returns the accumulated event-trace hash.
func (a *Auditor) TraceHash() uint64 { return a.hash }

// Violations returns everything the audit caught, in detection order.
func (a *Auditor) Violations() []string { return a.violations }

func (a *Auditor) violate(now sim.Time, format string, args ...interface{}) {
	if len(a.violations) >= maxViolations {
		return
	}
	a.violations = append(a.violations, fmt.Sprintf("[%s] ", now)+fmt.Sprintf(format, args...))
}

// OnAction is the action hook: it validates and hashes one controller
// action as the driver interprets it.
func (a *Auditor) OnAction(now sim.Time, act core.Action) {
	a.fold(actionLine(now, &act))
	switch act.Kind {
	case core.ActStartTask:
		if last, seen := a.lastAttempt[act.Task]; seen && int(act.Attempt) <= last {
			a.violate(now, "attempt not monotonic: %s started with attempt %d after %d", act.Task, act.Attempt, last)
		}
		a.lastAttempt[act.Task] = int(act.Attempt)
		switch a.cl.Machine(a.cl.MachineOf(act.Executor)).Health {
		case cluster.ReadOnly:
			a.violate(now, "task %s launched on read-only machine %d", act.Task, a.cl.MachineOf(act.Executor))
		case cluster.Failed:
			a.violate(now, "task %s launched on failed machine %d", act.Task, a.cl.MachineOf(act.Executor))
		case cluster.Healthy:
			// the only legal placement target
		}
		if state, dead := a.terminal[act.Task.Job]; dead {
			a.violate(now, "task %s launched after its job %s", act.Task, state)
		}
	case core.ActJobCompleted:
		if prev, dead := a.terminal[act.Task.Job]; dead {
			a.violate(now, "job %s completed after already %s", act.Task.Job, prev)
		}
		a.terminal[act.Task.Job] = "completed"
	case core.ActJobFailed:
		if prev, dead := a.terminal[act.Task.Job]; dead {
			a.violate(now, "job %s failed after already %s", act.Task.Job, prev)
		}
		a.terminal[act.Task.Job] = "failed"
	case core.ActAbortTask:
		if state, dead := a.terminal[act.Task.Job]; dead {
			a.violate(now, "task %s aborted after its job %s", act.Task, state)
		}
	case core.ActResend:
		if state, dead := a.terminal[act.Task.Job]; dead {
			a.violate(now, "resend to %s after its job %s", act.Task, state)
		}
	case core.ActJobRestarted:
		// A restart resets every attempt and terminal expectation for the
		// job; forget its attempt floor so re-runs start clean.
		for ref := range a.lastAttempt {
			if ref.Job == act.Task.Job {
				delete(a.lastAttempt, ref)
			}
		}
		delete(a.terminal, act.Task.Job)
	case core.ActMachineReadOnly, core.ActMachineHealthy:
		// Health transitions carry no task state to validate; the placement
		// checks above use the cluster's live health on every start.
	case core.ActShuffleDegraded:
		// Mode downgrades are validated by the controller's own invariant
		// sweep (CheckInvariants) at the next event boundary.
	case core.ActReplicate:
		if len(act.Detail.Machines) == 0 {
			a.violate(now, "replicate %s with no target machines", act.Task)
		}
		if state, dead := a.terminal[act.Task.Job]; dead {
			a.violate(now, "replicate %s after its job %s", act.Task, state)
		}
	}
}

// actionLine renders an action for the trace hash as the line
// fmt.Sprintf("%d|%T|%+v\n", now, act, act) gave when each kind was a
// struct type of its own, so the pinned soak summaries and chaos golden
// hash read the same stream (TestAuditorRendersLegacyActionText).
func actionLine(now sim.Time, act *core.Action) string {
	t, d := act.Task, act.Detail
	switch act.Kind {
	case core.ActStartTask:
		return fmt.Sprintf("%d|core.ActStartTask|{Task:%v Executor:%d Graphlet:%d Attempt:%d Reason:%v}\n",
			now, t, act.Executor, act.Graphlet, act.Attempt, act.Reason)
	case core.ActAbortTask:
		return fmt.Sprintf("%d|core.ActAbortTask|{Task:%v Executor:%d Attempt:%d}\n", now, t, act.Executor, act.Attempt)
	case core.ActResend:
		return fmt.Sprintf("%d|core.ActResend|{To:%v FromStage:%s}\n", now, t, d.FromStage)
	case core.ActJobCompleted:
		return fmt.Sprintf("%d|core.ActJobCompleted|{Job:%s}\n", now, t.Job)
	case core.ActJobFailed:
		return fmt.Sprintf("%d|core.ActJobFailed|{Job:%s Reason:%s}\n", now, t.Job, d.Reason)
	case core.ActJobRestarted:
		return fmt.Sprintf("%d|core.ActJobRestarted|{Job:%s}\n", now, t.Job)
	case core.ActMachineReadOnly:
		return fmt.Sprintf("%d|core.ActMachineReadOnly|{Machine:%d}\n", now, d.Machine)
	case core.ActMachineHealthy:
		return fmt.Sprintf("%d|core.ActMachineHealthy|{Machine:%d}\n", now, d.Machine)
	case core.ActShuffleDegraded:
		return fmt.Sprintf("%d|core.ActShuffleDegraded|{Job:%s From:%s To:%s Old:%v New:%v}\n", now, t.Job, d.From, d.To, d.Old, d.New)
	case core.ActReplicate:
		return fmt.Sprintf("%d|core.ActReplicate|{Task:%v Attempt:%d Machines:%v}\n", now, t, act.Attempt, d.Machines)
	}
	return fmt.Sprintf("%d|core.Action|%+v\n", now, *act)
}

// FlowDecision records one admission decision for submission id and
// enforces the exactly-once rule: every submission is decided exactly once
// at offer time (fromQueue false), and the only legal later transition is
// a queued submission's release into the scheduler (fromQueue true). The
// decision stream folds into the trace hash, so admission is part of the
// determinism witness.
func (a *Auditor) FlowDecision(now sim.Time, id string, d flow.Decision, fromQueue bool) {
	a.fold(fmt.Sprintf("flow|%d|%s|%s|%v\n", now, id, d, fromQueue))
	prev, seen := a.flowDec[id]
	switch {
	case fromQueue && (!seen || prev != flow.Queued || d != flow.Admitted):
		a.violate(now, "flow: queue release of %s is not a queued->admitted transition (prev seen=%v %v, now %v)", id, seen, prev, d)
	case !fromQueue && seen:
		a.violate(now, "flow: submission %s decided twice (%v then %v)", id, prev, d)
	}
	a.flowDec[id] = d
}

// FlowOutcome returns the final admission state of one submission and
// whether any decision was ever recorded for it.
func (a *Auditor) FlowOutcome(id string) (flow.Decision, bool) {
	d, ok := a.flowDec[id]
	return d, ok
}

// CheckNow is the event-boundary hook: the controller has processed one
// event and drained its actions, so every state invariant must hold. It
// runs the full state sweep on every event, and once more at the horizon.
func (a *Auditor) CheckNow(now sim.Time) {
	for _, msg := range a.ctrl.CheckInvariants() {
		a.violate(now, "%s", msg)
	}
	if len(a.quotas) > 0 {
		for _, tc := range a.ctrl.TenantSnapshots() {
			if q := a.quotas[tc.Tenant]; q > 0 && tc.Running > q {
				a.violate(now, "tenant %s runs %d tasks above its quota %d", tc.Tenant, tc.Running, q)
			}
		}
	}
}
