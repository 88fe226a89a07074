package core

import (
	"fmt"
	"slices"
	"sort"

	"swift/internal/cluster"
	"swift/internal/sched"
)

// This file is the controller's self-audit surface: deterministic
// introspection snapshots for external monitors (the chaos auditor in
// internal/chaos) and CheckInvariants, which verifies every internal
// consistency property the scheduler and recovery paths are supposed to
// maintain. It is pure observation — calling it never mutates state — and
// all iteration follows submission/stage order so output is reproducible.

// TaskState is the externally visible execution state of one task.
type TaskState int8

const (
	// TaskPending tasks await an executor.
	TaskPending TaskState = iota
	// TaskRunning tasks hold an executor.
	TaskRunning
	// TaskDone tasks completed and (unless OutputLost) hold usable output.
	TaskDone
)

// TaskSnapshot is one task's controller-side state at audit time.
type TaskSnapshot struct {
	Ref      TaskRef
	State    TaskState
	Executor cluster.ExecutorID // current/last attempt's executor (-1 unknown)
	Attempt  int
	Retries  int
	Graphlet int
	// OutputLost marks a done task whose buffered output is gone but was
	// not needed when the loss was detected.
	OutputLost bool
}

// LiveJobs returns the IDs of admitted jobs that are neither done nor
// failed, in submission order.
func (c *Controller) LiveJobs() []string {
	out := make([]string, len(c.order))
	for i, m := range c.order {
		out[i] = m.job.ID
	}
	return out
}

// Tasks returns snapshots of every task of a live job (nil for unknown
// jobs) in a deterministic order: stages in topological order
// (dag.Job.TopoOrder), tasks by index.
func (c *Controller) Tasks(job string) []TaskSnapshot {
	m := c.jobs[job]
	if m == nil {
		return nil
	}
	var out []TaskSnapshot
	for s, st := range m.stages {
		for i, t := range st.tasks {
			out = append(out, TaskSnapshot{
				Ref:        m.ref(s, i),
				State:      t.status,
				Executor:   t.executor,
				Attempt:    t.attempt,
				Retries:    t.retries,
				Graphlet:   st.graphlet,
				OutputLost: t.lost,
			})
		}
	}
	return out
}

// QueueLen returns the number of graphlet resource requests waiting in the
// scheduler queue.
func (c *Controller) QueueLen() int { return len(c.queue) }

// CheckInvariants verifies the controller's safety and liveness
// invariants and returns one message per violation (empty when
// consistent). It is intended to run at event boundaries — after the
// caller has processed one controller event and drained its actions — and
// covers:
//
//   - task-state conservation: every task is exactly one of
//     pending/running/done, and per-stage done counters match;
//   - graphlet accounting: running and pending counters match the running
//     and pending tasks, and no pending task sits behind the launch
//     cursor;
//   - executor leases: no two running tasks share an executor, every
//     running task holds a known executor, the cluster's busy-executor
//     count balances against the controller's running-task count, and no
//     running task sits on a machine the controller knows has failed;
//   - scheduler liveness: a graphlet with pending work is either gated
//     (waiting on an incomplete producer stage), registered in the
//     request queue, or still has running tasks whose completion will
//     re-trigger scheduling — anything else is a stuck scheduler;
//   - recovery consistency: no stage with a pending consumer task has a
//     producer task whose output is recorded lost but still marked done
//     (the consumer would launch against data that no longer exists), and
//     the controller's re-pended-run list — which the deadlock breaker
//     visits — holds exactly the graphlet runs flagged re-pended, each
//     with a pending task;
//   - queue positions: every queue entry's run knows its position, and a
//     live run that knows none has no entry;
//   - tenant accounting: the O(delta) per-tenant counters behind
//     TenantSnapshots, the kept usage view among them, match a full
//     per-tenant recount of live jobs, task states and queue entries;
//   - policy views: under every policy, sched.FIFO included, views built
//     from scratch agree entry for entry with the kept queue view, gang
//     list and per-job running counts — a writer that changed what a
//     policy would see without patching the view shows up here;
//   - the live table: it holds exactly the live-job order's monitors, as
//     many as Snapshot counts live jobs, none of them done or failed and
//     none with an id the outcome table already holds, and each job's
//     handle names it.
func (c *Controller) CheckInvariants() []string {
	var v []string
	seenExec := make(map[cluster.ExecutorID]TaskRef)
	totalRunning := 0
	repended := 0
	tenantRecount := make(map[string]*TenantCounts)
	recountFor := func(name string) *TenantCounts {
		tc := tenantRecount[name]
		if tc == nil {
			tc = &TenantCounts{Tenant: name}
			tenantRecount[name] = tc
		}
		return tc
	}

	if n := c.Snapshot().LiveJobs; len(c.jobs) != n || len(c.order) != n {
		v = append(v, fmt.Sprintf("live table holds %d jobs, the live-job order %d, the tenant counters %d", len(c.jobs), len(c.order), n))
	}
	for _, m := range c.order {
		jobID := m.job.ID
		if c.jobs[jobID] != m {
			v = append(v, fmt.Sprintf("%s: job in the live-job order is not in the live table", jobID))
		}
		if m.handle <= 0 || int(m.handle) >= len(c.handles) || c.handles[m.handle] != m {
			v = append(v, fmt.Sprintf("%s: handle %d does not name the live job", jobID, m.handle))
		}
		if _, retired := c.retired[jobID]; retired {
			v = append(v, fmt.Sprintf("%s: job is both live and retired", jobID))
		}
		if m.done || m.failed {
			v = append(v, fmt.Sprintf("%s: terminal job still live", jobID))
			continue
		}
		ttc := recountFor(m.tenant)
		ttc.Jobs++
		queued := make(map[int]int) // graphlet -> queue entries
		for _, run := range c.queue {
			if run.m == m {
				queued[run.g]++
			}
		}
		for s, st := range m.stages {
			name := st.spec.Name
			doneCount := 0
			for i, t := range st.tasks {
				ref := m.ref(s, i)
				switch t.status {
				case TaskPending:
					ttc.Pending++
				case TaskRunning:
					totalRunning++
					ttc.Running++
					e := t.executor
					if e < 0 {
						v = append(v, fmt.Sprintf("%s: running task %s has no executor", jobID, ref))
						break
					}
					if prev, dup := seenExec[e]; dup {
						v = append(v, fmt.Sprintf("executor %d double-assigned to %s and %s", e, prev, ref))
					}
					seenExec[e] = ref
					if c.cl.Machine(c.cl.MachineOf(e)).Health == cluster.Failed {
						v = append(v, fmt.Sprintf("%s: task %s still running on failed machine %d", jobID, ref, c.cl.MachineOf(e)))
					}
				case TaskDone:
					doneCount++
					ttc.Done++
				default:
					v = append(v, fmt.Sprintf("%s: task %s has invalid status %d", jobID, ref, t.status))
				}
			}
			if doneCount != st.done {
				v = append(v, fmt.Sprintf("%s: stage %s done counter %d != %d done tasks", jobID, name, st.done, doneCount))
			}
			// Recovery consistency: pending consumers imply no
			// done-but-lost producer outputs.
			if pendingTasks(st) > 0 {
				for _, from := range st.in {
					pst := m.stages[from]
					for i, t := range pst.tasks {
						if t.status == TaskDone && t.lost {
							v = append(v, fmt.Sprintf("%s: task %s/%s[%d] output lost but consumer stage %s has pending tasks", jobID, jobID, pst.spec.Name, i, name))
						}
					}
				}
			}
		}

		// Per-graphlet accounting and liveness.
		for g, run := range m.gruns {
			if run.repended {
				repended++
				if run.pending == 0 {
					v = append(v, fmt.Sprintf("%s: graphlet %d flagged re-pended with no pending task", jobID, g))
				}
			}
			running, pending := 0, 0
			for k, s := range run.stages {
				for i, t := range m.stages[s].tasks {
					switch t.status {
					case TaskRunning:
						running++
					case TaskPending:
						pending++
						if k < run.nk || (k == run.nk && i < run.ni) {
							v = append(v, fmt.Sprintf("%s: pending task %s sits behind graphlet %d's launch cursor", jobID, m.ref(s, i), g))
						}
					case TaskDone:
						// counted per stage above
					}
				}
			}
			if running != run.running {
				v = append(v, fmt.Sprintf("%s: graphlet %d running counter %d != %d running tasks", jobID, g, run.running, running))
			}
			if pending != run.pending {
				v = append(v, fmt.Sprintf("%s: graphlet %d pending counter %d != %d pending tasks", jobID, g, run.pending, pending))
			}
			if (run.qpos >= 0) != (queued[g] > 0) {
				v = append(v, fmt.Sprintf("%s: graphlet %d has queue position %d and %d queue entries", jobID, g, run.qpos-c.qoff, queued[g]))
			}
			switch run.status {
			case gWaiting:
				gated := false
				for _, s := range run.gating {
					if !m.stages[s].complete() {
						gated = true
						break
					}
				}
				if !gated {
					v = append(v, fmt.Sprintf("%s: graphlet %d waiting but all gating stages complete", jobID, g))
				}
			case gQueued:
				if queued[g] == 0 {
					v = append(v, fmt.Sprintf("%s: graphlet %d marked queued but absent from request queue", jobID, g))
				}
			case gRunning, gDone:
				if pending > 0 && running == 0 && queued[g] == 0 {
					v = append(v, fmt.Sprintf("%s: graphlet %d stuck: %d pending tasks, none running, not queued", jobID, g, pending))
				}
			}
		}
	}

	if busy := c.cl.BusyExecutors(); busy != totalRunning {
		v = append(v, fmt.Sprintf("executor lease imbalance: cluster reports %d busy, controller runs %d tasks", busy, totalRunning))
	}
	if repended != len(c.repended) {
		v = append(v, fmt.Sprintf("re-pended-run list holds %d runs, %d are flagged", len(c.repended), repended))
	}
	for _, run := range c.repended {
		if !run.repended {
			v = append(v, fmt.Sprintf("%s: graphlet %d on the re-pended-run list but not flagged", run.m.job.ID, run.g))
		}
	}
	for i, run := range c.queue {
		if run.qpos != c.qoff+i {
			v = append(v, fmt.Sprintf("%s: graphlet %d queued at %d thinks it is at %d", run.m.job.ID, run.g, i, run.qpos-c.qoff))
		}
	}
	// Per-tenant counters: every queue entry charges its job's tenant
	// (entries of dead jobs are filtered by failJob/restartJob, so the
	// lookup always resolves), then each maintained record must match the
	// recount — including records whose tenant retired (recount zero).
	for _, run := range c.queue {
		recountFor(run.m.tenant).Queued++
	}
	names := make([]string, 0, len(c.tenants)+len(tenantRecount))
	for name := range c.tenants {
		names = append(names, name)
	}
	for name := range tenantRecount {
		if _, tracked := c.tenants[name]; !tracked {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		var have, want TenantCounts
		have.Tenant, want.Tenant = name, name
		if tc := c.tenants[name]; tc != nil {
			have = c.counts(tc)
		}
		if tc := tenantRecount[name]; tc != nil {
			want = *tc
		}
		if have != want {
			v = append(v, fmt.Sprintf("tenant %q counters %+v != recount %+v", name, have, want))
		}
	}
	return append(v, c.checkViews()...)
}

// checkViews compares the kept policy views, and each job's running
// count, with fresh builds.
func (c *Controller) checkViews() []string {
	var v []string
	want, stale := c.buildItems()
	if len(c.items) != len(want) {
		v = append(v, fmt.Sprintf("kept policy view holds %d entries for a queue of %d", len(c.items), len(want)))
	} else {
		for i := range want {
			if c.items[i] != want[i] {
				v = append(v, fmt.Sprintf("kept policy view entry %d is %+v, a rebuild says %+v", i, c.items[i], want[i]))
				break
			}
		}
	}
	if stale != c.staleItems {
		v = append(v, fmt.Sprintf("kept policy view counts %d stale entries, a rebuild %d", c.staleItems, stale))
	}
	var gangs []sched.Gang
	var runs []*graphletRun
	for _, m := range c.order {
		for g, run := range m.gruns {
			if run.running > 0 {
				gangs = append(gangs, sched.Gang{Job: m.job.ID, Tenant: m.tenant,
					Graphlet: g, Running: run.running, Seq: m.seq})
				runs = append(runs, run)
			} else if run.gpos >= 0 {
				v = append(v, fmt.Sprintf("%s: graphlet %d runs nothing but thinks it is gang %d", m.job.ID, g, run.gpos))
			}
		}
	}
	if !slices.Equal(gangs, c.gangs) || !slices.Equal(runs, c.gangRuns) {
		v = append(v, fmt.Sprintf("kept gang list holds %d gangs, a rebuild %d, or they differ", len(c.gangs), len(gangs)))
	}
	for i, run := range c.gangRuns {
		if run.gpos != i {
			v = append(v, fmt.Sprintf("gang %s graphlet %d is at %d, its run says %d", c.gangs[i].Job, c.gangs[i].Graphlet, i, run.gpos))
			break
		}
	}
	for _, m := range c.order {
		running := 0
		for _, run := range m.gruns {
			running += run.running
		}
		if running != m.running {
			v = append(v, fmt.Sprintf("%s: job running count %d != %d over its graphlets", m.job.ID, m.running, running))
		}
	}
	return v
}

// pendingTasks counts a stage's pending tasks.
func pendingTasks(st *stageState) int {
	n := 0
	for _, t := range st.tasks {
		if t.status == TaskPending {
			n++
		}
	}
	return n
}
