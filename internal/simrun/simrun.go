// Package simrun binds the Swift controller (package core) to the
// discrete-event cluster simulator (packages sim and cluster): it
// interprets controller actions under the calibrated cost model, feeds
// completion and failure events back, and records the measurements the
// paper's evaluation reports — job latencies, per-task idle samples
// (IdleRatio, Fig. 3), per-stage phase breakdowns (Fig. 9b) and the
// running-executor time series (Fig. 10).
package simrun

import (
	"fmt"
	"sort"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/metrics"
	"swift/internal/shuffle"
	"swift/internal/sim"
)

// Config assembles a simulated Swift (or baseline) deployment.
type Config struct {
	Cluster cluster.Config
	Options core.Options
	Seed    int64
	// ReadmitDelay, when positive, re-admits a read-only (drained) machine
	// after that healthy observation window — the paper's health monitor
	// restoring a machine whose failure burst has passed. Zero leaves
	// drained machines out of the pool forever (the pre-hardening
	// behaviour, which starves the cluster under sustained fault storms).
	ReadmitDelay sim.Duration
}

// TaskSample is the per-task timing record behind IdleRatio.
type TaskSample struct {
	Ref        core.TaskRef
	Start      sim.Time // plan arrival at the executor
	DataArrive sim.Time // input data availability
	Finish     sim.Time
	Attempt    int
}

// IdleRatio is (T_data_arrive − T_task_start) / (T_task_finish −
// T_task_start), clamped to [0, 1].
func (s TaskSample) IdleRatio() float64 {
	total := (s.Finish - s.Start).Seconds()
	if total <= 0 {
		return 0
	}
	idle := (s.DataArrive - s.Start).Seconds()
	if idle < 0 {
		idle = 0
	}
	r := idle / total
	if r > 1 {
		r = 1
	}
	return r
}

// StagePhases is the Fig. 9b decomposition for a stage's critical task.
type StagePhases struct {
	Launch       float64
	ShuffleRead  float64 // table scanning for scan stages
	Process      float64
	ShuffleWrite float64 // adhoc sinking for sink stages
}

// JobResult summarises one job's run.
type JobResult struct {
	ID string
	// Tenant is the job's normalized tenant label (core.DefaultTenant for
	// unlabelled jobs), so per-tenant reports need no job-table lookups.
	Tenant    string
	Submit    sim.Time
	Finish    sim.Time
	Completed bool
	Failed    bool
	Restarts  int
	Resends   int
	Samples   []TaskSample
	Phases    map[string]*StagePhases
}

// Duration returns the job's end-to-end latency in seconds.
func (j *JobResult) Duration() float64 { return (j.Finish - j.Submit).Seconds() }

// Results aggregates a whole simulation run.
type Results struct {
	Jobs       map[string]*JobResult
	ExecSeries *metrics.Series // running executors over time
	Makespan   sim.Time
}

// SortedJobs returns the job results ordered by job ID, so callers iterate
// the Jobs map deterministically.
func (r *Results) SortedJobs() []*JobResult {
	ids := make([]string, 0, len(r.Jobs))
	for id := range r.Jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*JobResult, 0, len(ids))
	for _, id := range ids {
		out = append(out, r.Jobs[id])
	}
	return out
}

// JobDurations returns the latencies of completed jobs in seconds.
func (r *Results) JobDurations() []float64 {
	var out []float64
	for _, j := range r.SortedJobs() {
		if j.Completed {
			out = append(out, j.Duration())
		}
	}
	return out
}

// inEdge is one producer of a stage as the simulator needs it.
type inEdge struct {
	from     int  // producer's index in jobRun.stages
	pipeline bool // data streams as produced; otherwise it arrives at completion
}

// parkedTask names a task attempt waiting for a producer stage.
type parkedTask struct {
	stage, index int32
	attempt      int
}

// stageRun is the simulator's state of one stage of one job. A job's
// stages sit in one slice in topological order (dag.Job.TopoOrder), the
// controller's order, so a start action's Stage indexes it; everything the
// driver keeps per stage or per task hangs off it by index — launching and
// finishing a task hash no stage name here.
type stageRun struct {
	name  string
	in    []inEdge
	tasks []*runningTask // live attempt per task index; made on first start
	size  int            // the stage's task count
	// parked lists the attempts that started before this stage completed.
	// Entries of attempts that have since died are skipped at unpark time.
	parked     []parkedTask
	phases     *StagePhases // this stage's record in the job result
	firstStart sim.Time     // valid when started
	doneAt     sim.Time     // valid when done
	started    bool
	done       bool
	launched   map[cluster.ExecutorID]bool // cold-launch memo
}

type jobRun struct {
	job      *dag.Job
	handle   core.JobHandle // 0 for a job the controller failed inside SubmitJob
	res      *JobResult
	stages   []stageRun          // in topological order (dag.Job.TopoIndex)
	costs    []shuffle.StageCost // by stage, as stages: core.Controller.Price at admission
	numTasks int                 // sizes the result's sample slice on the first finish
	live     int                 // attempts currently in the stages' task tables
}

// runningTask is one simulated task attempt: running, parked on inputs, or
// swallowed by a machine that is down. Records are recycled (see
// Runner.free): once killed, a record may come back as the next attempt
// of any task, so nothing holds one past its kill but the engine's queued
// finish events, which armSeq turns away. The fields fill exactly 128
// bytes, one allocation size class.
type runningTask struct {
	r            *Runner
	jr           *jobRun
	stage, index int32 // position in jr.stages[·].tasks
	executor     cluster.ExecutorID
	attempt      int
	started      sim.Time
	launch       float64
	// unmet counts the producer stages this attempt parked on and still
	// waits for; sweep is the unpark pass that last found it waiting (see
	// onStageProgress).
	unmet int
	sweep int64
	// armSeq is the engine seq of the armed finish event, 0 while none is.
	// Fire completes the attempt for that seq only: a finish a straggler
	// re-arm superseded, or one that outlived its attempt's kill, is stale
	// and no-ops, even once the record carries another attempt.
	armSeq   int64
	finishAt sim.Time
	// slow accumulates straggler slowdown factors applied before the
	// finish time is computed (parked tasks).
	slow float64
	// Cost components and data-arrival estimate captured when the finish
	// was armed, so a re-armed finish records the same sample breakdown.
	read, process, write float64
	dataArrive           sim.Time
}

// Fire is the armed finish event of the attempt.
func (rt *runningTask) Fire(seq int64) {
	if seq == rt.armSeq {
		rt.r.finishTask(rt)
	}
}

func (rt *runningTask) ref() core.TaskRef {
	return core.TaskRef{Job: rt.jr.job.ID, Stage: rt.jr.stages[rt.stage].name, Index: int(rt.index)}
}

// Runner executes jobs on the simulated cluster.
type Runner struct {
	cfg  Config
	eng  *sim.Engine
	cl   *cluster.Cluster
	ctrl *core.Controller
	// handles holds the live jobs by their controller handle, the key
	// every task action carries; jobs holds them by name, for the fault
	// injectors and for a job the controller failed inside SubmitJob,
	// which never had a live handle.
	handles []*jobRun
	jobs    map[string]*jobRun
	sweeps  int64 // unpark passes so far
	// live counts the attempts in the jobs' task tables; free holds
	// killed records for reuse, never more than maxSpares of them nor more
	// than there are live attempts, so the spares shrink with the
	// cluster's load instead of staying at its peak.
	live    int
	free    []*runningTask
	series  *metrics.Series
	results *Results
	// down marks, by machine, the machines that have crashed but whose
	// failure the controller has not yet detected: their tasks are dead
	// and new launches on them are black holes until the heartbeat delay
	// elapses.
	down []bool
	// onAction observes every controller action as the driver interprets
	// it; afterEvent fires once the controller has processed an event and
	// its actions are drained (the chaos auditor's invariant checkpoint).
	onAction   func(sim.Time, core.Action)
	afterEvent func(sim.Time)
}

// New builds a runner. The zero Config is invalid; fill Cluster at least.
func New(cfg Config) *Runner {
	cl := cluster.New(cfg.Cluster)
	r := &Runner{
		cfg:     cfg,
		eng:     sim.NewEngine(cfg.Seed),
		cl:      cl,
		ctrl:    core.NewController(cl, cfg.Options),
		jobs:    make(map[string]*jobRun),
		down:    make([]bool, cl.NumMachines()),
		series:  metrics.NewSeries(),
		results: &Results{Jobs: make(map[string]*JobResult)},
	}
	// Observability events are stamped with the engine's virtual clock, so
	// the trace lives in the same timeline as the results (nil-safe).
	cfg.Options.Obs.SetClock(r.eng.Now)
	return r
}

// Engine exposes the simulation engine (for custom event injection).
func (r *Runner) Engine() *sim.Engine { return r.eng }

// Controller exposes the Swift Admin under simulation.
func (r *Runner) Controller() *core.Controller { return r.ctrl }

// Cluster exposes the simulated cluster.
func (r *Runner) Cluster() *cluster.Cluster { return r.cl }

// task returns the live attempt of a task, or nil.
func (r *Runner) task(ref core.TaskRef) *runningTask {
	if jr := r.jobs[ref.Job]; jr != nil {
		if si := jr.job.TopoIndex(ref.Stage); si >= 0 && ref.Index >= 0 && ref.Index < len(jr.stages[si].tasks) {
			return jr.stages[si].tasks[ref.Index]
		}
	}
	return nil
}

// kill removes a live attempt from the tables: it finished, was aborted,
// or a fault took it. Whatever it was parked on forgets it lazily. The
// record goes back to the free list, so the caller must not read it after.
func (r *Runner) kill(rt *runningTask) {
	rt.jr.stages[rt.stage].tasks[rt.index] = nil
	rt.jr.live--
	r.live--
	rt.armSeq = 0
	r.series.Delta(r.eng.Now().Seconds(), -1)
	switch n := len(r.free); {
	case n < min(r.live, maxSpares):
		r.free = append(r.free, rt)
	case n > r.live: // one over: the load fell, so one spare goes
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	}
}

// maxSpares bounds the free list. A spare only has to carry a finished
// attempt's record to the attempts the same event starts; holding more
// keeps memory live past the load's peak (on the 140,040-executor replay,
// a bound of one spare per live attempt held the peak RSS about 8 MiB
// above this one).
const maxSpares = 1024

// newTask returns a record for a new attempt: a recycled one when the free
// list has one.
func (r *Runner) newTask() *runningTask {
	if n := len(r.free); n > 0 {
		rt := r.free[n-1]
		r.free = r.free[:n-1]
		return rt
	}
	return new(runningTask)
}

// liveTasks returns every live attempt matching keep, ordered by task
// reference, for deterministic fault targeting.
func (r *Runner) liveTasks(keep func(*runningTask) bool) []*runningTask {
	var out []*runningTask
	for _, jr := range r.jobs {
		if jr.live == 0 {
			continue
		}
		for si := range jr.stages {
			for _, rt := range jr.stages[si].tasks {
				if rt != nil && keep(rt) {
					out = append(out, rt)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.jr != b.jr {
			return a.jr.job.ID < b.jr.job.ID
		}
		if a.stage != b.stage {
			return a.jr.stages[a.stage].name < a.jr.stages[b.stage].name
		}
		return a.index < b.index
	})
	return out
}

// SubmitAt schedules a job submission at the given virtual time.
func (r *Runner) SubmitAt(at sim.Time, job *dag.Job) {
	r.eng.At(at, func() { _ = r.Submit(job) })
}

// Submit admits a job at the current virtual time, synchronously. It is
// the hook admission-control drivers (chaos soaks, flow experiments) use
// to submit work at the moment the flow controller releases it, rather
// than at a pre-scheduled instant.
func (r *Runner) Submit(job *dag.Job) error {
	if r.results.Jobs[job.ID] != nil {
		// The result, and the tables if the job still runs, of the job
		// already submitted under this ID must survive.
		return fmt.Errorf("simrun: duplicate job id %q", job.ID)
	}
	names, _ := job.TopoOrder() // nil for a cyclic job, which SubmitJob rejects
	jr := &jobRun{
		job: job,
		res: &JobResult{
			ID:     job.ID,
			Tenant: core.TenantName(job),
			Submit: r.eng.Now(),
			Phases: make(map[string]*StagePhases),
		},
		stages: make([]stageRun, len(names)),
	}
	for i, name := range names {
		s, sr := job.Stage(name), &jr.stages[i]
		sr.name, sr.size = s.Name, s.Tasks
		for _, e := range job.In(s.Name) {
			sr.in = append(sr.in, inEdge{from: job.TopoIndex(e.From), pipeline: e.Mode == dag.Pipeline})
		}
		jr.numTasks += s.Tasks
	}
	r.jobs[job.ID] = jr
	r.results.Jobs[job.ID] = jr.res
	if err := r.ctrl.SubmitJob(job); err != nil {
		r.retire(jr).Failed = true
		return err
	}
	if jr.handle = r.ctrl.Handle(job.ID); jr.handle != 0 {
		for len(r.handles) <= int(jr.handle) {
			r.handles = append(r.handles, nil)
		}
		r.handles[jr.handle] = jr
	}
	jr.costs = r.ctrl.Price(jr.handle)
	r.handleActions()
	return nil
}
