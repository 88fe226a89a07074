// Package core implements the Swift Admin of Section II: job admission,
// shuffle-mode-aware partitioning, graphlet gang scheduling against the
// resource pool (data locality + machine load), executor management,
// machine health monitoring, and the fine-grained failure recovery of
// Section IV. The controller is a pure event→action state machine: it owns
// no clock, goroutines or I/O. Drivers (the discrete-event simulator in
// package simrun and the real execution engine in package engine) feed it
// events — job submissions, task completions, failures, machine health
// changes — and interpret the actions it emits.
package core

import (
	"fmt"
	"math"

	"swift/internal/cluster"
	"swift/internal/dag"
	"swift/internal/graphlet"
	"swift/internal/sched"
	"swift/internal/shuffle"
)

type gStatus int8

const (
	gWaiting gStatus = iota // gating stages not yet complete
	gQueued                 // registered with the resource scheduler
	gRunning                // at least one task launched, none pending
	gDone
)

// taskID names one task of a job by its stage's topological index and its
// task index: the controller's internal, pointer-free form of a TaskRef.
type taskID struct{ stage, index int32 }

// taskState is one task's controller-side record, the only place its
// state lives: whether it is pending is read here, never from a second
// list. Its fields are ordered so that it packs into 32 bytes.
type taskState struct {
	executor cluster.ExecutorID // executor of current/last attempt (-1 unknown)
	attempt  int
	retries  int
	status   TaskState
	reason   StartReason // reason for the next launch
	started  bool        // ever launched (non-idempotent cascade scope)
	// lost marks a done task whose buffered output is gone but was not
	// needed at loss time ("no step will be taken"). If a consumer later
	// re-enters the pending state, the producer must re-run first —
	// markPending revives lost inputs transitively.
	lost bool
}

// stageState tracks per-task execution state of one stage.
type stageState struct {
	spec     *dag.Stage
	graphlet int
	// in are the topological indexes of the stage's producers and out its
	// edges to its consumers, each in the job's edge order.
	in    []int
	out   []outEdge
	tasks []taskState
	done  int
}

// outEdge is one shuffle edge out of a stage: its consumer's topological
// index and the mode selected at admission (degradeEdges may lower it).
type outEdge struct {
	to   int
	mode shuffle.Mode
}

func (s *stageState) complete() bool { return s.done == len(s.tasks) }

// graphletRun tracks scheduling state of one graphlet: graphlet g of m's
// job. It is also the graphlet's resource request, the entry the request
// queue and the re-pended list hold; monitors outlive their queue entries
// (failJob and restartJob filter the queue).
type graphletRun struct {
	m      *monitor
	g      int
	status gStatus
	// stages are the graphlet's stages, as topological indexes in
	// ascending order. pending counts their pending tasks, and (nk, ni) is
	// the launch cursor, a task index ni of stage stages[nk]: no pending
	// task sits before it in (stage, index) order, so takePending finds the
	// most-upstream pending task by walking forward from it.
	stages  []int
	pending int
	nk, ni  int
	running int
	gating  []int // external producer stages (topological indexes) that must finish first
	// gang is the graphlet's Gang property: all-or-nothing launch. A gang
	// waiting for executors ends a nil plan's walk, and is never starved
	// while the pool is wet (breakDeadlock).
	gang bool
	// repended is set while the run holds tasks that recovery sent back to
	// pending; the scheduler's deadlock check visits only such runs.
	repended bool
	// qpos is the run's position in the request queue, counted from the
	// queue's first entry ever (Controller.qoff), or -1 while it has no
	// entry. A run has at most one. gpos is its index in the kept gang
	// list while it holds executors under a policy, else -1.
	qpos, gpos int
}

// monitor is the per-job state the paper calls the Job Monitor.
type monitor struct {
	job       *dag.Job
	graphlets []*graphlet.Graphlet
	gruns     []*graphletRun
	stages    []*stageState // in topological order (dag.Job.TopoIndex)
	done      bool
	failed    bool
	tenant    string       // normalized tenant label (TenantName)
	tc        *tenantState // the tenant's live aggregate counters
	running   int          // running tasks, kept by snapDelta
	seq       int          // admission sequence number (policy FIFO tiebreak)
	handle    JobHandle    // index in Controller.handles
	// homes is where done tasks' buffered outputs live: for each output
	// TaskFinished replicated, the machines holding a copy in serving order
	// (head = serving copy). A done task with no entry — all of them at
	// ShuffleReplicas ≤ 1 — has one implicit home, the machine of its
	// executor. Recovery knows only this model; it never asks whether
	// replication is on.
	homes map[taskID][]cluster.MachineID
}

// ref renders a task's public name.
func (m *monitor) ref(stage, index int) TaskRef {
	return TaskRef{Job: m.job.ID, Stage: m.stages[stage].spec.Name, Index: index}
}

// Controller is the Swift Admin state machine.
type Controller struct {
	opts Options
	cl   *cluster.Cluster
	// jobs is the live table: a job's monitor lives here from SubmitJob to
	// its terminal action (ActJobCompleted or ActJobFailed), when retire
	// moves the job to retired, which keeps only its id and outcome — true
	// for completed, false for failed. A retired job holds no other state.
	jobs    map[string]*monitor
	retired map[string]bool
	// handles is the live table by JobHandle: slot h holds the monitor of
	// the job SubmitJob issued h, from admission to retire, which nils it.
	// Slot 0 stays nil and no slot is reused, so a retired job leaves one
	// nil slot behind.
	handles []*monitor
	order   []*monitor     // live jobs in submission order; snapClose drops a job when it completes or fails
	queue   []*graphletRun // graphlet resource requests, FIFO
	// qoff is the absolute position of queue[0]: dropping a served prefix
	// advances it instead of renumbering every run behind (graphletRun.qpos)
	// and every view entry (sched.Item.Index is the absolute position too).
	qoff    int
	actions []Action
	// repended lists the graphlet runs that hold tasks recovery sent back
	// to pending, in no particular order. Empty means no recovery is in
	// flight anywhere, so the scheduler's deadlock check is skipped
	// entirely on the hot fault-free path; otherwise it visits these runs,
	// not the queue.
	repended []*graphletRun
	// policy is the resolved scheduling policy (never nil), or the round
	// of its own it handed this controller (sched.Rounder); every round
	// asks it for a plan, sched.FIFO included (see servePolicy).
	policy sched.Policy
	// tenants holds each tenant's record (live jobs, done tasks and its
	// index in usage, which holds the rest of its counts), maintained
	// O(delta) at every task state transition and summed by Snapshot (see
	// tenant.go); nextSeq numbers admissions for the policy's FIFO tiebreak.
	tenants    map[string]*tenantState
	tenantList []*tenantState // the same records, sorted by tenant name
	nextSeq    int
	reclaims   int // gangs reclaimed by policy preemption, for reports
	// Output-loss recovery counters, for reports: replicaHits counts
	// lost serving copies recovered by promoting a surviving replica (no
	// recompute), recomputes counts lost outputs that re-ran the producer
	// ("rerun" dispositions, replicated or not).
	replicaHits int
	recomputes  int
	// The policy's views, kept by deltas under every policy: items[i]
	// describes queue[i] and staleItems counts its entries with nothing
	// launchable (see patchItem); gangs lists the graphlet runs holding
	// executors by (admission seq, graphlet), the preemption candidates,
	// and gangRuns[i] is the run behind gangs[i] (see syncGang); usage[i]
	// is tenantList[i]'s running, pending and queued counts, their only
	// store (see snapDelta and snapQueued). CheckInvariants compares the
	// views with fresh builds and recounts the tenants.
	items      []sched.Item
	staleItems int
	gangs      []sched.Gang
	gangRuns   []*graphletRun
	usage      []sched.TenantUsage
	// Scratch the deadlock breaker reuses instead of allocating on every
	// event: its starved runs and per-stage marks.
	starved []*graphletRun
	below   []bool
}

// NewController builds a controller over the given cluster.
func NewController(cl *cluster.Cluster, opts Options) *Controller {
	if opts.Partition == nil {
		opts.Partition = GraphletPartition
	}
	if opts.Shuffle == nil {
		opts.Shuffle = AdaptiveShuffle(shuffle.DefaultThresholds())
	}
	if opts.Policy == nil {
		opts.Policy = sched.FIFO{}
	}
	policy := opts.Policy
	if r, ok := policy.(sched.Rounder); ok {
		policy = r.NewRound()
	}
	return &Controller{opts: opts, cl: cl, jobs: make(map[string]*monitor), retired: make(map[string]bool),
		handles: make([]*monitor, 1), policy: policy, tenants: make(map[string]*tenantState)}
}

// Cluster returns the managed cluster.
func (c *Controller) Cluster() *cluster.Cluster { return c.cl }

// Drain returns the actions accumulated since the last call. The slice is
// the controller's own buffer, reused for the next event's actions: it is
// valid until the controller is fed another event, so a caller that keeps
// actions longer (flow.Service hands them to its sink after releasing its
// lock) must copy them.
func (c *Controller) Drain() []Action {
	a := c.actions
	c.actions = c.actions[:0]
	return a
}

func (c *Controller) emit(a Action) {
	c.actions = append(c.actions, a)
	c.observe(&c.actions[len(c.actions)-1])
}

// SubmitJob admits a job: validates it, partitions it with the configured
// policy, selects shuffle modes per edge, issues its JobHandle, and
// registers resource requests for the graphlets whose inputs are already
// available. A job with a gang larger than the cluster is admitted and
// failed at once (ActJobFailed). A job of more graphlets than
// Action.Graphlet can name is refused.
func (c *Controller) SubmitJob(job *dag.Job) error {
	if job == nil {
		return fmt.Errorf("core: nil job")
	}
	if _, retired := c.retired[job.ID]; retired || c.jobs[job.ID] != nil {
		return fmt.Errorf("core: duplicate job id %q", job.ID)
	}
	if err := job.Validate(); err != nil {
		return err
	}
	gs, err := c.opts.Partition(job)
	if err != nil {
		return err
	}
	if len(gs) > math.MaxInt16 {
		return fmt.Errorf("core: job %q has %d graphlets, more than the %d an action can name", job.ID, len(gs), math.MaxInt16)
	}
	topo, _ := job.TopoOrder() // validated above
	m := &monitor{
		job:       job,
		graphlets: gs,
		stages:    make([]*stageState, len(topo)),
		tenant:    TenantName(job),
		seq:       c.nextSeq,
		handle:    JobHandle(len(c.handles)),
	}
	c.nextSeq++
	m.tc = c.tenantCounts(m.tenant)
	c.opts.Obs.JobSubmitted(job.ID, len(topo), job.NumTasks(), len(gs))
	for i, name := range topo {
		spec := job.Stage(name)
		m.stages[i] = &stageState{spec: spec, tasks: make([]taskState, spec.Tasks)}
		m.stages[i].reset()
	}
	for _, g := range gs {
		for _, s := range g.Stages {
			m.stages[job.TopoIndex(s)].graphlet = g.Index
		}
	}
	for _, e := range job.Edges() {
		from, to := job.TopoIndex(e.From), job.TopoIndex(e.To)
		crossing := m.stages[from].graphlet != m.stages[to].graphlet
		mode := c.opts.Shuffle(job.ShuffleEdgeSize(e), e.Bytes, crossing)
		c.opts.Obs.ShuffleModeSelected(job.ID, e.From, e.To, mode.String(), job.ShuffleEdgeSize(e), e.Bytes)
		m.stages[from].out = append(m.stages[from].out, outEdge{to, mode})
		m.stages[to].in = append(m.stages[to].in, from)
	}
	m.gruns = c.buildGraphletRuns(m)
	c.jobs[job.ID] = m
	c.handles = append(c.handles, m)
	c.order = append(c.order, m)
	m.tc.jobs++
	c.snapDelta(m, job.NumTasks(), 0, 0) // every task starts pending
	// A gang launches whole or not at all, so one larger than the cluster
	// would wait for ever; one that fits only its healthy part still waits.
	for _, run := range m.gruns {
		if run.gang && run.pending > c.cl.NumExecutors() {
			c.failJob(m, fmt.Sprintf("graphlet %d is a gang of %d tasks and the cluster has %d executors",
				run.g, run.pending, c.cl.NumExecutors()))
			break
		}
	}
	c.enqueueReady(m)
	c.schedule()
	return nil
}

// reset gives every task of the stage a fresh pending state. Attempt
// numbers are kept: they go on increasing across a job restart so a stale
// completion can never match.
func (s *stageState) reset() {
	for i := range s.tasks {
		s.tasks[i] = taskState{executor: -1, attempt: s.tasks[i].attempt}
	}
	s.done = 0
}

// buildGraphletRuns derives the scheduling state for each graphlet: its
// stages, all of their tasks pending with the launch cursor at the first,
// and its gating stages (producers of edges entering from outside — the
// "all its input data are ready" submission rule).
func (c *Controller) buildGraphletRuns(m *monitor) []*graphletRun {
	runs := make([]*graphletRun, len(m.graphlets))
	for _, g := range m.graphlets {
		run := &graphletRun{m: m, g: g.Index, status: gWaiting, gang: g.Gang, qpos: -1, gpos: -1}
		for si, st := range m.stages {
			if st.graphlet != g.Index {
				continue
			}
			run.stages = append(run.stages, si)
			run.pending += len(st.tasks)
			for _, from := range st.in {
				if m.stages[from].graphlet != g.Index {
					run.gating = append(run.gating, from)
				}
			}
		}
		runs[g.Index] = run
	}
	return runs
}

// enqueueReady moves graphlets whose gating stages are all complete from
// gWaiting to gQueued.
func (c *Controller) enqueueReady(m *monitor) {
	if m.failed || m.done {
		return
	}
	for _, run := range m.gruns {
		if run.status != gWaiting {
			continue
		}
		ready := true
		for _, s := range run.gating {
			if !m.stages[s].complete() {
				ready = false
				break
			}
		}
		if ready {
			c.enqueue(run)
		}
	}
}

// live resolves a task reference of a live job to the job's monitor and
// the stage's topological index; ok is false for an unknown or retired
// job, an unknown stage, or an index out of range.
func (c *Controller) live(ref *TaskRef) (m *monitor, si int, ok bool) {
	m = c.jobs[ref.Job]
	if m == nil {
		return nil, 0, false
	}
	si = m.job.TopoIndex(ref.Stage)
	if si < 0 || ref.Index < 0 || ref.Index >= len(m.stages[si].tasks) {
		return nil, 0, false
	}
	return m, si, true
}

// Handle returns the JobHandle of a live job, or 0 when no job of that
// id is live.
func (c *Controller) Handle(job string) JobHandle {
	if m := c.jobs[job]; m != nil {
		return m.handle
	}
	return 0
}

// at resolves a task of a live job, named by the job's handle, its stage's
// topological index and its index, to the job's monitor; nil for handle 0,
// a retired handle, or a position out of range.
func (c *Controller) at(job JobHandle, stage, index int) *monitor {
	if uint(job) >= uint(len(c.handles)) {
		return nil
	}
	m := c.handles[job]
	if m == nil || uint(stage) >= uint(len(m.stages)) || uint(index) >= uint(len(m.stages[stage].tasks)) {
		return nil
	}
	return m
}

// TaskFinished records a successful task completion. Stale attempts (from
// an aborted execution racing its abort) are ignored.
func (c *Controller) TaskFinished(ref TaskRef, attempt int) {
	if m, si, ok := c.live(&ref); ok && c.taskFinished(m, si, ref.Index, attempt) {
		c.schedule()
	}
}

// FinishTask is TaskFinished for a task named the way its start action
// names it inside the process: the job's handle (Action.Job), the stage's
// topological index (Action.Stage) and the task's index. It is the
// completion path of the simulator and the daemon, and hashes no name.
func (c *Controller) FinishTask(job JobHandle, stage, index, attempt int) {
	if m := c.at(job, stage, index); m != nil && c.taskFinished(m, stage, index, attempt) {
		c.schedule()
	}
}

// taskFinished records the completion of the given attempt of task i of
// stage si and reports whether that attempt was the running one.
func (c *Controller) taskFinished(m *monitor, si, i, attempt int) bool {
	st := m.stages[si]
	t := &st.tasks[i]
	if t.attempt != attempt || t.status != TaskRunning {
		return false
	}
	t.status = TaskDone
	st.done++
	c.snapDelta(m, 0, -1, 1)
	run := m.gruns[st.graphlet]
	run.running--
	e := t.executor
	if c.opts.ShuffleReplicas > 1 && len(st.out) > 0 {
		// Replicate the buffered output before the executor is reused: the
		// copy reads from the producer's Cache Worker, not the executor.
		c.replicateOutput(m, taskID{int32(si), int32(i)}, e)
	}

	// Reuse the freed executor for the next pending task of the same
	// graphlet; otherwise hand it back to the resource pool. Reuse is only
	// legal while the executor's machine still accepts work: launching on
	// a draining (read-only) or failed machine would break the health
	// monitor's contract (Section IV-A), so those slots are released
	// instead and the graphlet asks the scheduler for replacements.
	if run.pending > 0 && c.cl.Machine(c.cl.MachineOf(e)).Health == cluster.Healthy {
		c.launch(m, run, c.takePending(m, run), e)
		c.patchItem(run) // its queue entry's Pending moves behind servePolicy's back
	} else {
		c.cl.ReleaseOne(e)
		c.syncGang(run)
		if run.pending > 0 {
			c.requeue(run)
		} else if run.running == 0 && run.status != gDone {
			run.status = gDone
			c.opts.Obs.GraphletDone(m.job.ID, st.graphlet)
		}
	}

	if st.complete() {
		c.enqueueReady(m)
		c.checkJobDone(m)
	}
	return true
}

func (c *Controller) checkJobDone(m *monitor) {
	for _, st := range m.stages {
		if !st.complete() {
			return
		}
	}
	m.done = true
	for _, run := range m.gruns {
		c.patchItem(run) // a dead job's entries are stale
	}
	c.snapClose(m)
	c.emit(Action{Kind: ActJobCompleted, Job: m.handle, Task: TaskRef{Job: m.job.ID}})
	c.retire(m)
}

// retire moves a job that reached its terminal action from the live table
// to the outcome table and nils its handle's slot. Queue entries may still
// point at its monitor, as stale entries the scheduling round drops when
// it reaches them; nothing looks the job up by name or handle again.
func (c *Controller) retire(m *monitor) {
	delete(c.jobs, m.job.ID)
	c.handles[m.handle] = nil
	c.retired[m.job.ID] = m.done
}

// JobDone reports whether the job has completed successfully.
func (c *Controller) JobDone(job string) bool { return c.retired[job] }

// JobFailed reports whether the job was abandoned.
func (c *Controller) JobFailed(job string) bool {
	done, retired := c.retired[job]
	return retired && !done
}

// StageComplete reports whether all tasks of a live job's stage with the
// given topological index (Action.Stage) have finished. It is false for a
// retired handle: a driver knows a retired job's outcome from its
// terminal action, and every stage of a completed job is complete.
func (c *Controller) StageComplete(job JobHandle, stage int) bool {
	m := c.at(job, stage, 0) // every stage has a task
	return m != nil && m.stages[stage].complete()
}

// EdgeMode returns the shuffle mode of a live job's edge: the one selected
// at admission, or Direct once a Cache Worker crash degraded it. It is
// Direct for a job, stage or edge it does not know.
func (c *Controller) EdgeMode(job, from, to string) shuffle.Mode {
	m := c.jobs[job]
	if m == nil {
		return shuffle.Direct
	}
	if fi, ti := m.job.TopoIndex(from), m.job.TopoIndex(to); fi >= 0 {
		for _, e := range m.stages[fi].out {
			if e.to == ti {
				return e.mode
			}
		}
	}
	return shuffle.Direct
}

// RunningTask returns the executor and attempt of a task if it is
// currently running.
func (c *Controller) RunningTask(ref TaskRef) (cluster.ExecutorID, int, bool) {
	m, si, ok := c.live(&ref)
	if !ok || m.stages[si].tasks[ref.Index].status != TaskRunning {
		return 0, 0, false
	}
	t := m.stages[si].tasks[ref.Index]
	return t.executor, t.attempt, true
}

// replicateOutput records the machine homes of a finished task's buffered
// output and instructs the driver to copy it: the primary home is the
// executor's machine (where the Cache Worker already buffered the data),
// the R−1 extras the next healthy machines on the machine-ID ring — a
// deterministic placement every component can recompute.
func (c *Controller) replicateOutput(m *monitor, id taskID, e cluster.ExecutorID) {
	n := c.cl.NumMachines()
	primary := c.cl.MachineOf(e)
	homes := make([]cluster.MachineID, 1, c.opts.ShuffleReplicas)
	homes[0] = primary
	for i := 1; i < n && len(homes) < c.opts.ShuffleReplicas; i++ {
		id := cluster.MachineID((int(primary) + i) % n)
		if c.cl.Machine(id).Health == cluster.Healthy {
			homes = append(homes, id)
		}
	}
	if m.homes == nil {
		m.homes = make(map[taskID][]cluster.MachineID)
	}
	m.homes[id] = homes
	c.emit(Action{Kind: ActReplicate, Job: m.handle, Task: m.ref(int(id.stage), int(id.index)),
		Attempt: int32(m.stages[id.stage].tasks[id.index].attempt),
		Detail:  &ActionDetail{Machines: homes}})
}

// ReplicaRecoveries returns how many lost serving copies recovery resolved
// by promoting a surviving replica instead of recomputing the producer.
func (c *Controller) ReplicaRecoveries() int { return c.replicaHits }

// OutputRecomputes returns how many lost buffered outputs required
// re-running the producer task (the "rerun" disposition), whether or not
// replication was enabled.
func (c *Controller) OutputRecomputes() int { return c.recomputes }
