package core

// Observability hooks. The controller records alongside emit(): every
// action the drivers see is also translated into a typed obs event, so the
// trace is a faithful mirror of the action stream. Detection-side events
// (task failures, lost outputs, machine death) have no Action — drivers
// already know, they reported them — and are recorded at the recovery
// entry points instead. A nil recorder (observability off) costs one nil
// check per call and cannot perturb any scheduling decision: the recorder
// only reads.

// String names the start reason for trace labels.
func (r StartReason) String() string {
	switch r {
	case StartFresh:
		return "fresh"
	case StartRetry:
		return "retry"
	case StartCascade:
		return "cascade"
	}
	return "invalid"
}

// String names the failure kind for trace labels.
func (k FailureKind) String() string {
	switch k {
	case FailCrash:
		return "crash"
	case FailAppError:
		return "app-error"
	}
	return "invalid"
}

// observe mirrors one emitted action into the recorder.
func (c *Controller) observe(a *Action) {
	r := c.opts.Obs
	if r == nil {
		return
	}
	switch a.Kind {
	case ActStartTask:
		r.TaskStarted(a.Task.Job, a.Task.Stage, a.Task.Index, int(a.Attempt), int(a.Graphlet),
			int(a.Executor), a.Reason.String())
	case ActAbortTask:
		r.TaskAborted(a.Task.Job, a.Task.Stage, a.Task.Index, int(a.Attempt), int(a.Executor))
	case ActResend:
		r.Resend(a.Task.Job, a.Task.Stage, a.Task.Index, a.Detail.FromStage)
	case ActJobCompleted:
		r.JobCompleted(a.Task.Job)
	case ActJobFailed:
		r.JobFailed(a.Task.Job, a.Detail.Reason)
	case ActJobRestarted:
		r.JobRestarted(a.Task.Job)
	case ActMachineReadOnly:
		r.MachineReadOnly(int(a.Detail.Machine))
	case ActMachineHealthy:
		r.MachineHealthy(int(a.Detail.Machine))
	case ActShuffleDegraded:
		r.ShuffleDegraded(a.Task.Job, a.Detail.From, a.Detail.To, a.Detail.Old.String(), a.Detail.New.String())
	case ActReplicate:
		machine := -1
		if len(a.Detail.Machines) > 0 {
			machine = int(a.Detail.Machines[0])
		}
		r.Replicated(a.Task.Job, a.Task.Stage, a.Task.Index, int(a.Attempt), len(a.Detail.Machines), machine)
	}
}
