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
	"slices"

	"swift/internal/cluster"
	"swift/internal/dag"
	"swift/internal/graphlet"
	"swift/internal/sched"
	"swift/internal/shuffle"
)

type taskStatus int8

const (
	tPending taskStatus = iota
	tRunning
	tDone
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
// Pending queues hold taskIDs, so popping, scanning and growing them moves
// eight bytes per task and gives the collector nothing to trace.
type taskID struct{ stage, index int32 }

// stageState tracks per-task execution state of one stage.
type stageState struct {
	spec     *dag.Stage
	graphlet int
	// in and out are the topological indexes of the stage's producers and
	// consumers, in the job's edge order.
	in, out  []int
	status   []taskStatus
	executor []cluster.ExecutorID // executor of current/last attempt (-1 unknown)
	attempt  []int
	retries  []int
	started  []bool        // ever launched (non-idempotent cascade scope)
	reason   []StartReason // reason for the next launch of each task
	// lost marks a tDone task whose buffered output is gone but was not
	// needed at loss time ("no step will be taken"). If a consumer later
	// re-enters the pending state, the producer must re-run first —
	// markPending revives lost inputs transitively.
	lost []bool
	done int
}

func (s *stageState) complete() bool { return s.done == len(s.status) }

// graphletRun tracks scheduling state of one graphlet.
type graphletRun struct {
	status  gStatus
	pending []taskID // tasks awaiting an executor, topologically ordered
	running int
	gating  []int // external producer stages (topological indexes) that must finish first
	gang    bool  // the graphlet's Gang property: all-or-nothing launch, blocks the FIFO walk while it waits
	// disordered is set when recovery re-inserts a task, so the pending
	// queue may no longer be in topological order and launch selection
	// must scan for the most-upstream entry instead of popping the front.
	disordered bool
	// qpos is the run's position in the request queue, counted from the
	// queue's first entry ever (Controller.qoff), or -1 while it has no
	// entry. A run has at most one. gpos is its index in the kept gang
	// list while it holds executors under a policy, else -1.
	qpos, gpos int
}

type edgeKey struct{ from, to string }

// monitor is the per-job state the paper calls the Job Monitor.
type monitor struct {
	job       *dag.Job
	graphlets []*graphlet.Graphlet
	owner     map[string]int // stage -> graphlet index
	gruns     []*graphletRun
	stages    []*stageState // in topological order
	modes     map[edgeKey]shuffle.Mode
	stageIdx  map[string]int // stage -> topological index
	insertion []int          // see sweepOrder
	done      bool
	failed    bool
	tenant    string        // normalized tenant label (TenantName)
	tc        *TenantCounts // the tenant's live aggregate counters
	seq       int           // admission sequence number (policy FIFO tiebreak)
	// homes is where done tasks' buffered outputs live: for each output
	// TaskFinished replicated, the machines holding a copy in serving order
	// (head = serving copy). A done task with no entry — all of them at
	// ShuffleReplicas ≤ 1 — has one implicit home, the machine of its
	// executor. Recovery knows only this model; it never asks whether
	// replication is on.
	homes map[taskID][]cluster.MachineID
}

// stage returns the named stage's state, or nil for a name the job does
// not have. Event entry points resolve a TaskRef's stage name here once;
// everything below them addresses stages by topological index.
func (m *monitor) stage(name string) *stageState {
	i, ok := m.stageIdx[name]
	if !ok {
		return nil
	}
	return m.stages[i]
}

// sweepOrder returns the stages' topological indexes in the job's stage
// insertion order — the order recovery sweeps visit them, which is not the
// order of m.stages when a job declares a consumer before its producer.
// Built on first use: only fault handling sweeps.
func (m *monitor) sweepOrder() []int {
	if m.insertion == nil {
		names := m.job.StageNames()
		m.insertion = make([]int, len(names))
		for k, name := range names {
			m.insertion[k] = m.stageIdx[name]
		}
	}
	return m.insertion
}

// ref renders a task's public name.
func (m *monitor) ref(stage, index int) TaskRef {
	return TaskRef{Job: m.job.ID, Stage: m.stages[stage].spec.Name, Index: index}
}

// Controller is the Swift Admin state machine.
type Controller struct {
	opts  Options
	cl    *cluster.Cluster
	jobs  map[string]*monitor
	order []*monitor // live jobs in submission order; snapClose drops a job when it completes or fails
	queue []reqItem  // graphlet resource requests (ReqItems), FIFO
	// qoff is the absolute position of queue[0]: dropping a served prefix
	// advances it instead of renumbering every run behind (graphletRun.qpos)
	// and every view entry (sched.Item.Index is the absolute position too).
	qoff    int
	actions []Action
	// deferSchedule suppresses the resource loop while a batch of
	// related failures is being processed (machine failure), so that
	// recovery decisions see the full damage before relaunches begin.
	deferSchedule bool
	// disordered lists the graphlet runs whose pending queue holds
	// recovery-re-inserted tasks, in no particular order. Empty means no
	// recovery is in flight anywhere, so the scheduler's deadlock check is
	// skipped entirely on the hot fault-free path; otherwise it visits
	// these runs, not the queue.
	disordered []reqItem
	// policy is the resolved scheduling policy (never nil); every round
	// asks it for a plan, sched.FIFO included (see servePolicy).
	policy sched.Policy
	// tenants holds per-tenant aggregate counters, maintained O(delta) at
	// every task state transition and summed by Snapshot (see tenant.go);
	// nextSeq numbers admissions for the policy's FIFO tiebreak.
	tenants    map[string]*TenantCounts
	tenantList []*TenantCounts // the same records, sorted by tenant name
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
	// and gangRuns[i] is the run behind gangs[i] (see syncGang).
	// CheckInvariants compares both views with a fresh build.
	items      []sched.Item
	staleItems int
	gangs      []sched.Gang
	gangRuns   []*graphletRun
	// Scratch the scheduling round reuses instead of allocating on every
	// event: the tenant view handed to the policy (which may not retain
	// it), the grant bookkeeping, and the deadlock breaker's starved runs
	// and per-stage marks.
	served  []bool
	usage   []sched.TenantUsage
	starved []reqItem
	below   []bool
}

// reqItem is one graphlet resource request. It points at the job's monitor
// so serving and scanning the queue never look a job up by name; monitors
// outlive their queue entries (failJob and restartJob filter the queue).
type reqItem struct {
	m *monitor
	g int
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
	return &Controller{opts: opts, cl: cl, jobs: make(map[string]*monitor),
		policy: opts.Policy, tenants: make(map[string]*TenantCounts)}
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
	c.observe(a)
}

// SubmitJob admits a job: validates it, partitions it with the configured
// policy, selects shuffle modes per edge, and registers resource requests
// for the graphlets whose inputs are already available.
func (c *Controller) SubmitJob(job *dag.Job) error {
	if job == nil {
		return fmt.Errorf("core: nil job")
	}
	if _, dup := c.jobs[job.ID]; dup {
		return fmt.Errorf("core: duplicate job id %q", job.ID)
	}
	if err := job.Validate(); err != nil {
		return err
	}
	gs, err := c.opts.Partition(job)
	if err != nil {
		return err
	}
	topo, _ := job.TopoOrder() // validated above
	m := &monitor{
		job:       job,
		graphlets: gs,
		owner:     make(map[string]int),
		stages:    make([]*stageState, len(topo)),
		modes:     make(map[edgeKey]shuffle.Mode),
		stageIdx:  make(map[string]int, len(topo)),
		tenant:    TenantName(job),
		seq:       c.nextSeq,
	}
	c.nextSeq++
	m.tc = c.tenantCounts(m.tenant)
	for i, s := range topo {
		m.stageIdx[s] = i
	}
	for _, g := range gs {
		for _, s := range g.Stages {
			m.owner[s] = g.Index
		}
	}
	c.opts.Obs.JobSubmitted(job.ID, len(topo), job.NumTasks(), len(gs))
	for i, name := range topo {
		spec := job.Stage(name)
		m.stages[i] = &stageState{spec: spec, graphlet: m.owner[name], attempt: make([]int, spec.Tasks)}
		m.stages[i].reset()
	}
	for _, e := range job.Edges() {
		crossing := m.owner[e.From] != m.owner[e.To]
		mode := c.opts.Shuffle(job.ShuffleEdgeSize(e), e.Bytes, crossing)
		c.opts.Obs.ShuffleModeSelected(job.ID, e.From, e.To, mode.String(), job.ShuffleEdgeSize(e), e.Bytes)
		m.modes[edgeKey{e.From, e.To}] = mode
		from, to := m.stageIdx[e.From], m.stageIdx[e.To]
		m.stages[from].out = append(m.stages[from].out, to)
		m.stages[to].in = append(m.stages[to].in, from)
	}
	m.gruns = c.buildGraphletRuns(m)
	c.jobs[job.ID] = m
	c.order = append(c.order, m)
	c.snapAdmit(m)
	c.enqueueReady(m)
	c.schedule()
	return nil
}

// reset gives every task of the stage a fresh pending state. Attempt
// numbers are kept: they go on increasing across a job restart so a stale
// completion can never match.
func (s *stageState) reset() {
	tasks := s.spec.Tasks
	s.status = make([]taskStatus, tasks)
	s.executor = make([]cluster.ExecutorID, tasks)
	s.retries = make([]int, tasks)
	s.started = make([]bool, tasks)
	s.reason = make([]StartReason, tasks)
	s.lost = make([]bool, tasks)
	s.done = 0
	for i := range s.executor {
		s.executor[i] = -1
	}
}

// buildGraphletRuns derives the scheduling state for each graphlet:
// pending-task order (topological within the graphlet) and gating stages
// (producers of edges entering from outside — the "all its input data are
// ready" submission rule).
func (c *Controller) buildGraphletRuns(m *monitor) []*graphletRun {
	runs := make([]*graphletRun, len(m.graphlets))
	for _, g := range m.graphlets {
		tasks := 0
		for _, st := range m.stages {
			if st.graphlet == g.Index {
				tasks += len(st.status)
			}
		}
		run := &graphletRun{status: gWaiting, pending: make([]taskID, 0, tasks), gang: g.Gang, qpos: -1, gpos: -1}
		for si, st := range m.stages {
			if st.graphlet != g.Index {
				continue
			}
			for i := range st.status {
				run.pending = append(run.pending, taskID{int32(si), int32(i)})
			}
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
	for i, run := range m.gruns {
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
			c.enqueue(m, i)
		}
	}
}

// requeue re-registers a graphlet that needs more executors (recovery or a
// pool shrunk by machine failure). A run has at most one queue entry, and
// one still queued — stale or not — keeps its place.
func (c *Controller) requeue(m *monitor, g int) {
	if m.gruns[g].qpos >= 0 {
		return
	}
	c.enqueue(m, g)
}

// enqueue appends a resource request for graphlet g of m's job.
func (c *Controller) enqueue(m *monitor, g int) {
	run := m.gruns[g]
	run.status = gQueued
	run.qpos = c.qoff + len(c.queue)
	c.queue = append(c.queue, reqItem{m: m, g: g})
	c.items = append(c.items, c.viewItem(len(c.queue)-1))
	if c.items[len(c.items)-1].Pending == 0 {
		c.staleItems++
	}
	m.tc.Queued++
	c.opts.Obs.GraphletQueued(m.job.ID, g, len(run.pending))
}

// move shifts the queue entry at position from to position to, where
// the caller has made room; the entry's run and view entry follow it.
func (c *Controller) move(from, to int) {
	it := c.queue[from]
	c.queue[to] = it
	it.m.gruns[it.g].qpos = c.qoff + to
	c.items[to] = c.items[from]
	c.items[to].Index = c.qoff + to
}

// drop retires the queue entry at position i; the caller compacts the
// queue over it.
func (c *Controller) drop(i int) {
	it := c.queue[i]
	it.m.gruns[it.g].qpos = -1
	it.m.tc.Queued--
	if c.items[i].Pending == 0 {
		c.staleItems--
	}
}

// truncate cuts the queue, and the view with it, to its first n entries.
func (c *Controller) truncate(n int) {
	c.queue = c.queue[:n]
	c.items = c.items[:n]
}

// maxPreemptRounds bounds policy preemptions per scheduling round; each
// reclaim frees executors and re-serves the queue, and the next event's
// schedule() continues if shares are still out of balance.
const maxPreemptRounds = 4

// schedule is the ResourceScheduleLoop: serve the request queue, and if
// the pool ran dry with requests still waiting, check for the one stall
// serving alone cannot fix — every executor held by pipeline consumers
// idle-waiting on producer tasks that recovery pushed back to pending.
// Breaking that deadlock frees an executor, so the queue is served again.
// A dry pool with starved queued work may also warrant preemption: the
// policy nominates whole-graphlet victims to reclaim (sched.FIFO never
// does), reusing the deadlock breaker's per-task machinery.
func (c *Controller) schedule() {
	if c.deferSchedule {
		return
	}
	preempts := 0
	for {
		freeBefore := c.cl.FreeExecutors()
		planned := c.servePolicy()
		if len(c.queue) == 0 {
			return
		}
		if free := c.cl.FreeExecutors(); free > 0 {
			// Pool still wet with work queued. A nil plan's FIFO walk was
			// uncapped and visited every entry no gang unit blocked, so the
			// remainder is gated — done (preempting a waiting gang's own
			// consumer frees one executor and re-pends one task, which
			// never makes the gang fit). A plan is budgeted: after a
			// progressing round, re-plan (a launch may have consumed the
			// last of a tenant's quota with work still queued behind it);
			// once a round launches nothing, the clamped remainder may be
			// wedged behind its own quota — every quota slot held by
			// consumers parked on the very producers the clamp keeps
			// queued, a state no future event will fix. Preempting one
			// parked consumer frees a unit of quota for the starved
			// producer.
			if !planned {
				return
			}
			if free < freeBefore {
				continue
			}
			if len(c.disordered) != 0 && c.breakDeadlock() {
				continue
			}
			return
		}
		// A dry pool with waiting requests is the normal saturated state;
		// it can only be a deadlock when recovery has re-pended work
		// somewhere (a disordered run), so the scan is gated on that.
		if len(c.disordered) != 0 && c.breakDeadlock() {
			continue
		}
		if preempts >= maxPreemptRounds || !c.preemptRound() {
			return
		}
		preempts++
	}
}

// serveFIFO answers a nil JobOrder plan — sched.FIFO's on every round, a
// policy's on a round it defers: it walks the request queue in FIFO order,
// allocates executors (locality + load policy in cluster.Allocate), and
// launches pending tasks. Items that cannot make progress stay queued;
// later items may still be served (backfill), which is what lets small
// jobs flow around a large one — except behind a gang unit, which blocks
// the walk while it waits (graphlet.Graphlet.Gang). The walk keeps the
// policy's queue view in step with the queue.
func (c *Controller) serveFIFO() {
	// In-place queue compaction: entries that were fully served (or whose
	// job died) are dropped; entries still waiting stay in FIFO order. In
	// the common saturated case one freed executor is absorbed by the
	// head entry and the loop exits after one iteration with the queue
	// untouched. That round is O(1) — serveItem allocates what the pool
	// has, not what the graphlet wants, and takePending pops the head — and
	// must stay so: it runs on every task completion.
	n := len(c.queue)
	w, i := 0, 0
	for ; i < n; i++ {
		// Once the pool is dry nothing further can be served this round.
		if c.cl.FreeExecutors() == 0 {
			break
		}
		item := c.queue[i]
		if !c.serveItem(item, 0) {
			c.drop(i)
			continue
		}
		if w != i {
			c.move(i, w)
		}
		run := item.m.gruns[item.g]
		c.items[w].Pending = len(run.pending)
		w++
		if run.gang {
			i++
			break // head-of-line blocking: nothing behind is served
		}
	}
	switch {
	case w == i:
		// Nothing dropped; the unprocessed tail is already in place.
	case w == 0:
		// Every visited entry was served: drop the prefix without moving
		// the (possibly thousands deep) tail.
		c.queue = c.queue[i:]
		c.qoff += i
		c.items = c.items[i:]
	default:
		for ; i < len(c.queue); i++ {
			c.move(i, w)
			w++
		}
		c.truncate(w)
	}
}

// serveItem tries to allocate executors for one queued graphlet request
// and reports whether the item should remain queued. limit > 0 caps how
// many tasks may launch this round (a policy grant's tenant budget); it
// applies after a gang unit's full-fit check, which keeps gang semantics a
// property of the graphlet, not of the policy.
func (c *Controller) serveItem(item reqItem, limit int) (keep bool) {
	m := item.m
	if m.failed || m.done {
		return false
	}
	run := m.gruns[item.g]
	if run.status != gQueued || len(run.pending) == 0 {
		if run.status == gQueued {
			run.status = gRunning
		}
		return false
	}
	want := len(run.pending)
	if run.gang && c.cl.FreeExecutors() < want {
		// Nothing launches until the whole gang fits.
		return true
	}
	if limit > 0 && want > limit {
		want = limit
	}
	execs := c.cl.Allocate(want, nil)
	if len(execs) == 0 {
		return true
	}
	for i, e := range execs {
		if len(run.pending) == 0 {
			// More executors than pending tasks (pending shrank since
			// `want` was computed): return the leftovers.
			c.cl.Release(execs[i:])
			break
		}
		c.launch(m, run, c.takePending(run), e)
	}
	if len(run.pending) > 0 {
		return true
	}
	run.status = gRunning
	return false
}

// takePending removes and returns the next pending task to launch,
// upstream stages first. Freshly built pending queues are topologically
// ordered, so the common path pops the front in O(1); once recovery
// re-inserts tasks out of order, the queue is scanned for the entry with
// the smallest (topological stage index, task index), so a re-pended
// producer always launches before more of its consumers — launching
// consumers first would park them on data the producer cannot regenerate
// without an executor. A disordered queue stays disordered until it
// empties, and every take from it scans, so the order of what remains
// does not matter: the head moves into the hole and the slice advances,
// which for an ordered run is the plain head pop.
func (c *Controller) takePending(run *graphletRun) taskID {
	p := run.pending
	best := 0
	if run.disordered {
		for i := 1; i < len(p); i++ {
			a, b := p[i], p[best]
			if a.stage < b.stage || (a.stage == b.stage && a.index < b.index) {
				best = i
			}
		}
	}
	id := p[best]
	p[best] = p[0]
	run.pending = p[1:]
	if run.disordered && len(run.pending) == 0 {
		c.clearDisordered(run)
	}
	return id
}

// clearDisordered takes a run off the disordered list: its pending queue
// emptied, or its job is being discarded.
func (c *Controller) clearDisordered(run *graphletRun) {
	run.disordered = false
	c.disordered = slices.DeleteFunc(c.disordered, func(d reqItem) bool { return d.m.gruns[d.g] == run })
}

// breakDeadlock resolves the one stall the resource loop cannot serve its
// way out of: recovery re-pends producer tasks (lost output, machine
// crash) while downstream consumers occupy every executor waiting for
// exactly that data — the consumers never finish, so no executor is ever
// freed for the producers. The stall can span graphlets: a gating stage
// that regresses after its consumer graphlet launched leaves that
// graphlet's tasks parked on data nobody can regenerate. For the first
// starved queue item, the most-downstream running task of the same job
// below a pending stage is preempted, and the starved item moves to the
// queue front so the freed executor goes to the blocked producer rather
// than relaunching a consumer that would only park again. The preemption
// is not the victim's fault, so its retry budget is untouched; a
// non-idempotent victim cascades exactly like a failed one. Returns
// whether a task was preempted (i.e. an executor may have been freed).
func (c *Controller) breakDeadlock() bool {
	// Every deadlock starves a recovery-re-pended producer, and
	// re-insertion marks its run disordered — ordered runs cannot be the
	// blocked side of a deadlock. So only the queued disordered runs are
	// examined, in queue order. A victim is a running task of the same
	// job: a job reclaimed down to nothing running stays queued and
	// disordered round after round, and is passed over here.
	c.starved = c.starved[:0]
	for _, d := range c.disordered {
		m, run := d.m, d.m.gruns[d.g]
		if run.qpos >= 0 && run.status == gQueued && len(run.pending) > 0 && !m.failed && !m.done &&
			slices.ContainsFunc(m.gruns, func(r *graphletRun) bool { return r.running > 0 }) {
			c.starved = append(c.starved, d)
		}
	}
	if len(c.starved) > 1 {
		slices.SortFunc(c.starved, func(a, b reqItem) int { return a.m.gruns[a.g].qpos - b.m.gruns[b.g].qpos })
	}
	for _, item := range c.starved {
		m := item.m
		run := m.gruns[item.g]
		vs, vi := c.deadlockVictim(m, run)
		if vs < 0 {
			continue
		}
		st := m.stages[vs]
		c.emit(ActAbortTask{Task: m.ref(vs, vi), Executor: st.executor[vi], Attempt: st.attempt[vi]})
		c.releaseRunning(m, st, vi)
		c.markPending(m, vs, vi, StartRetry)
		if !st.spec.Idempotent {
			c.cascade(m, vs, st.graphlet, nil)
		}
		c.requeue(m, st.graphlet)
		// Serve the starved producer first: each preemption then launches
		// a task strictly upstream of its victim, which bounds the number
		// of preemptions one scheduling round can perform.
		qi := run.qpos - c.qoff
		view := c.items[qi]
		for k := qi; k > 0; k-- {
			c.move(k-1, k)
		}
		view.Index = c.qoff
		c.queue[0], c.items[0], run.qpos = item, view, c.qoff
		return true
	}
	return false
}

// deadlockVictim picks the task to preempt for a starved disordered run:
// the most-downstream running task of the job strictly below any stage
// with pending work in the run, preferring one whose executor will
// actually repool (healthy machine). It returns (-1, -1) when nothing
// below is running.
func (c *Controller) deadlockVictim(m *monitor, run *graphletRun) (stage, index int) {
	// Stages strictly downstream of a pending stage. Topological order
	// makes one forward sweep a transitive closure: a stage is below if
	// any producer is pending in this run or itself below.
	c.below = resized(c.below, len(m.stages))
	below := c.below
	for _, id := range run.pending {
		for _, to := range m.stages[id.stage].out {
			below[to] = true
		}
	}
	for s, st := range m.stages {
		if below[s] {
			for _, to := range st.out {
				below[to] = true
			}
		}
	}
	stage, index = -1, -1
	for s := len(m.stages) - 1; s >= 0; s-- {
		if !below[s] {
			continue
		}
		st := m.stages[s]
		for i := range st.status {
			if st.status[i] != tRunning {
				continue
			}
			if c.cl.Machine(c.cl.MachineOf(st.executor[i])).Health == cluster.Healthy {
				return s, i
			}
			if index < 0 {
				stage, index = s, i
			}
		}
	}
	return stage, index
}

// launch starts one task attempt on an executor and emits the action. The
// start reason was recorded in the stage state by whoever marked the task
// pending (fresh submission, retry or cascade).
func (c *Controller) launch(m *monitor, run *graphletRun, id taskID, e cluster.ExecutorID) {
	st := m.stages[id.stage]
	i := int(id.index)
	reason := st.reason[i]
	st.reason[i] = StartFresh
	st.status[i] = tRunning
	st.executor[i] = e
	st.attempt[i]++
	st.started[i] = true
	run.running++
	c.syncGang(m, st.graphlet)
	c.snapDelta(m, -1, 1, 0)
	ref := TaskRef{Job: m.job.ID, Stage: st.spec.Name, Index: i}
	c.emit(ActStartTask{
		Task:     ref,
		Executor: e,
		Graphlet: st.graphlet,
		Attempt:  st.attempt[i],
		Reason:   reason,
	})
	if reason == StartRetry && st.spec.Idempotent {
		// Intra-graphlet idempotent recovery: surviving pipeline
		// producers in the same graphlet re-send buffered output.
		for _, from := range st.in {
			if pst := m.stages[from]; pst.graphlet == st.graphlet {
				c.emit(ActResend{To: ref, FromStage: pst.spec.Name})
			}
		}
	}
}

// TaskFinished records a successful task completion. Stale attempts (from
// an aborted execution racing its abort) are ignored.
func (c *Controller) TaskFinished(ref TaskRef, attempt int) {
	m := c.jobs[ref.Job]
	if m == nil || m.failed || m.done {
		return
	}
	si, ok := m.stageIdx[ref.Stage]
	if !ok {
		return
	}
	st := m.stages[si]
	if ref.Index < 0 || ref.Index >= len(st.status) {
		return
	}
	if st.attempt[ref.Index] != attempt || st.status[ref.Index] != tRunning {
		return
	}
	st.status[ref.Index] = tDone
	st.done++
	c.snapDelta(m, 0, -1, 1)
	run := m.gruns[st.graphlet]
	run.running--
	e := st.executor[ref.Index]
	if c.opts.ShuffleReplicas > 1 && len(st.out) > 0 {
		// Replicate the buffered output before the executor is reused: the
		// copy reads from the producer's Cache Worker, not the executor.
		c.replicateOutput(m, taskID{int32(si), int32(ref.Index)}, ref, e)
	}

	// Reuse the freed executor for the next pending task of the same
	// graphlet; otherwise hand it back to the resource pool. Reuse is only
	// legal while the executor's machine still accepts work: launching on
	// a draining (read-only) or failed machine would break the health
	// monitor's contract (Section IV-A), so those slots are released
	// instead and the graphlet asks the scheduler for replacements.
	if len(run.pending) > 0 && c.cl.Machine(c.cl.MachineOf(e)).Health == cluster.Healthy {
		c.launch(m, run, c.takePending(run), e)
		c.patchItem(run) // its queue entry's Pending moves behind servePolicy's back
	} else {
		c.cl.ReleaseOne(e)
		c.syncGang(m, st.graphlet)
		if len(run.pending) > 0 {
			c.requeue(m, st.graphlet)
		} else if run.running == 0 && run.status != gDone {
			run.status = gDone
			c.opts.Obs.GraphletDone(m.job.ID, st.graphlet)
		}
	}

	if st.complete() {
		c.enqueueReady(m)
		c.checkJobDone(m)
	}
	c.schedule()
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
	c.emit(ActJobCompleted{Job: m.job.ID})
}

// JobDone reports whether the job has completed successfully.
func (c *Controller) JobDone(job string) bool {
	m := c.jobs[job]
	return m != nil && m.done
}

// JobFailed reports whether the job was abandoned.
func (c *Controller) JobFailed(job string) bool {
	m := c.jobs[job]
	return m != nil && m.failed
}

// StageComplete reports whether all tasks of a stage have finished.
func (c *Controller) StageComplete(job, stage string) bool {
	m := c.jobs[job]
	if m == nil {
		return false
	}
	st := m.stage(stage)
	return st != nil && st.complete()
}

// EdgeMode returns the shuffle mode selected for an edge at admission.
func (c *Controller) EdgeMode(job, from, to string) shuffle.Mode {
	m := c.jobs[job]
	if m == nil {
		return shuffle.Direct
	}
	return m.modes[edgeKey{from, to}]
}

// Graphlets returns the partition computed for a job at admission.
func (c *Controller) Graphlets(job string) []*graphlet.Graphlet {
	m := c.jobs[job]
	if m == nil {
		return nil
	}
	return m.graphlets
}

// RunningTask returns the executor and attempt of a task if it is
// currently running.
func (c *Controller) RunningTask(ref TaskRef) (cluster.ExecutorID, int, bool) {
	m := c.jobs[ref.Job]
	if m == nil {
		return 0, 0, false
	}
	st := m.stage(ref.Stage)
	if st == nil || ref.Index < 0 || ref.Index >= len(st.status) || st.status[ref.Index] != tRunning {
		return 0, 0, false
	}
	return st.executor[ref.Index], st.attempt[ref.Index], true
}

// replicateOutput records the machine homes of a finished task's buffered
// output and instructs the driver to copy it: the primary home is the
// executor's machine (where the Cache Worker already buffered the data),
// the R−1 extras the next healthy machines on the machine-ID ring — a
// deterministic placement every component can recompute.
func (c *Controller) replicateOutput(m *monitor, id taskID, ref TaskRef, e cluster.ExecutorID) {
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
	c.emit(ActReplicate{Task: ref, Attempt: m.stages[id.stage].attempt[id.index], Machines: homes})
}

// ReplicaRecoveries returns how many lost serving copies recovery resolved
// by promoting a surviving replica instead of recomputing the producer.
func (c *Controller) ReplicaRecoveries() int { return c.replicaHits }

// OutputRecomputes returns how many lost buffered outputs required
// re-running the producer task (the "rerun" disposition), whether or not
// replication was enabled.
func (c *Controller) OutputRecomputes() int { return c.recomputes }
