package engine

import (
	"errors"
	"fmt"
	"sync"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
)

// StageFn is the body of one task of a stage. It reads inputs and emits
// outputs through the TaskContext; returning an error fails the task
// attempt and triggers the controller's recovery.
type StageFn func(ctx *TaskContext) error

// Plans maps stage names to their task bodies.
type Plans map[string]StageFn

// ErrInjected is returned by tasks killed through FailTask.
var ErrInjected = errors.New("engine: injected task failure")

// errClosed is what Submit, and the wait of a job still running, return
// once Close has stopped the controller loop.
var errClosed = errors.New("engine: closed")

// Config sizes the engine's executor pool.
type Config struct {
	Machines            int
	ExecutorsPerMachine int
	Options             core.Options
}

// DefaultConfig returns a small local deployment (4 machines × 4
// executors) with Swift's production scheduling options.
func DefaultConfig() Config {
	return Config{Machines: 4, ExecutorsPerMachine: 4, Options: core.DefaultOptions()}
}

type event struct {
	fn func()
}

type jobState struct {
	job   *dag.Job
	plans Plans
	// sunk holds committed sink output per task ("stage|index"). Sink
	// rows are buffered in the TaskContext and committed only when the
	// controller accepts the attempt's completion, so a task killed
	// after sinking cannot double-count against its retry.
	sunk map[string][]Row
	done chan struct{}
	err  error
}

type taskRun struct {
	ref     core.TaskRef
	attempt int
	abort   chan struct{}
}

// Engine executes DAG jobs on real rows with goroutine executors, driven
// by the same core.Controller as the simulator.
type Engine struct {
	cfg    Config
	ctrl   *core.Controller
	cl     *cluster.Cluster
	store  *Store
	events chan event
	quit   chan struct{}
	loopWG sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*jobState
	running map[core.TaskRef]*taskRun
	tables  map[string]*Table
}

// New starts an engine; Close releases its event loop.
func New(cfg Config) *Engine {
	if cfg.Machines <= 0 {
		cfg.Machines = 4
	}
	if cfg.ExecutorsPerMachine <= 0 {
		cfg.ExecutorsPerMachine = 4
	}
	cl := cluster.New(cluster.Config{Machines: cfg.Machines, ExecutorsPerMachine: cfg.ExecutorsPerMachine})
	e := &Engine{
		cfg:     cfg,
		cl:      cl,
		ctrl:    core.NewController(cl, cfg.Options),
		store:   NewStore(cfg.Machines, 0),
		events:  make(chan event, 256),
		quit:    make(chan struct{}),
		jobs:    make(map[string]*jobState),
		running: make(map[core.TaskRef]*taskRun),
		tables:  make(map[string]*Table),
	}
	e.loopWG.Add(1)
	go e.loop()
	return e
}

// Close stops the engine's event loop. Jobs in flight are abandoned.
func (e *Engine) Close() {
	close(e.quit)
	e.loopWG.Wait()
}

// RegisterTable makes a dataset available to scan stages of all jobs.
func (e *Engine) RegisterTable(t *Table) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tables[t.Name] = t
}

// loop is the single goroutine that owns the controller — the engine's
// Event Processor (Section II-B).
func (e *Engine) loop() {
	defer e.loopWG.Done()
	for {
		select {
		case ev := <-e.events:
			ev.fn()
		case <-e.quit:
			return
		}
	}
}

// post queues fn for the controller loop. After Close it may drop fn, or
// queue it where nothing runs it, so a caller that waits on fn must also
// wait on e.quit.
func (e *Engine) post(fn func()) {
	select {
	case e.events <- event{fn}:
	case <-e.quit:
	}
}

// Submit admits a job with its stage plans and returns a wait function
// that blocks until completion, yielding the rows collected by sink stages
// (in deterministic order) or the job error.
func (e *Engine) Submit(job *dag.Job, plans Plans) (wait func() ([]Row, error), err error) {
	for _, s := range job.Stages() {
		if plans[s.Name] == nil {
			return nil, fmt.Errorf("engine: no plan for stage %s", s.Name)
		}
	}
	js := &jobState{job: job, plans: plans, sunk: make(map[string][]Row), done: make(chan struct{})}
	errc := make(chan error, 1)
	e.mu.Lock()
	if _, dup := e.jobs[job.ID]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: duplicate job %s", job.ID)
	}
	e.jobs[job.ID] = js
	e.mu.Unlock()

	e.post(func() {
		if err := e.ctrl.SubmitJob(job); err != nil {
			errc <- err
			return
		}
		errc <- nil
		e.applyActions()
	})
	select {
	case err = <-errc:
	case <-e.quit:
		err = errClosed
	}
	if err != nil {
		e.mu.Lock()
		delete(e.jobs, job.ID)
		e.mu.Unlock()
		return nil, err
	}
	return func() ([]Row, error) {
		select {
		case <-js.done:
		case <-e.quit:
			select {
			case <-js.done: // finished as the engine closed
			default:
				return nil, errClosed
			}
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if js.err != nil {
			return nil, js.err
		}
		// Deterministic order: sink stages in job order, tasks by index.
		var out []Row
		for _, st := range js.job.Stages() {
			for i := 0; i < st.Tasks; i++ {
				out = append(out, js.sunk[sinkKey(st.Name, i)]...)
			}
		}
		return out, nil
	}, nil
}

func sinkKey(stage string, index int) string { return fmt.Sprintf("%s|%d", stage, index) }

// Run is Submit + wait.
func (e *Engine) Run(job *dag.Job, plans Plans) ([]Row, error) {
	wait, err := e.Submit(job, plans)
	if err != nil {
		return nil, err
	}
	return wait()
}

// applyActions drains controller actions on the loop goroutine.
func (e *Engine) applyActions() {
	for _, a := range e.ctrl.Drain() {
		switch a.Kind {
		case core.ActStartTask:
			e.startTask(&a)
		case core.ActAbortTask:
			e.abortTask(&a)
		case core.ActResend:
			// Surviving producers' segments are still in the Store;
			// the re-launched reader re-pulls them, so no transfer
			// action is needed in-process.
		case core.ActJobCompleted:
			e.finishJob(a.Task.Job, nil)
		case core.ActJobFailed:
			e.finishJob(a.Task.Job, errors.New(a.Detail.Reason))
		case core.ActJobRestarted, core.ActMachineReadOnly, core.ActMachineHealthy:
			// Health transitions and restart accounting have no in-process
			// work: the controller already rescheduled what they affect.
		case core.ActShuffleDegraded:
			// Mode downgrades only matter to the simulator's cost model;
			// the in-process store serves segments the same way in every
			// mode.
		case core.ActReplicate:
			// The in-process store keeps one authoritative copy per
			// segment; replication is a simulator-cost concern.
		}
	}
}

func (e *Engine) finishJob(id string, err error) {
	e.mu.Lock()
	js := e.jobs[id]
	if js == nil {
		e.mu.Unlock()
		return
	}
	js.err = err
	delete(e.jobs, id)
	e.mu.Unlock()
	e.store.DropJob(id)
	close(js.done)
}

// startTask runs a task's attempt on its own goroutine, which copies what it
// reads of a: the controller refills its action buffer on the next event.
func (e *Engine) startTask(a *core.Action) {
	ref, attempt := a.Task, int(a.Attempt)
	e.mu.Lock()
	js := e.jobs[ref.Job]
	if js == nil {
		e.mu.Unlock()
		return
	}
	tr := &taskRun{ref: ref, attempt: attempt, abort: make(chan struct{})}
	e.running[ref] = tr
	e.mu.Unlock()

	machine := int(e.cl.MachineOf(a.Executor))
	ctx := &TaskContext{
		engine:  e,
		js:      js,
		ref:     ref,
		attempt: attempt,
		machine: machine,
		abort:   tr.abort,
	}
	go func() {
		err := e.runBody(ctx, js)
		e.post(func() {
			e.mu.Lock()
			cur := e.running[ref]
			if cur == nil || cur.attempt != attempt {
				e.mu.Unlock()
				return // aborted; a newer attempt owns the task
			}
			delete(e.running, ref)
			if err == nil {
				// Commit this attempt's sink output (replacing any
				// earlier attempt's).
				js.sunk[sinkKey(ref.Stage, ref.Index)] = ctx.sink
			}
			e.mu.Unlock()
			if err != nil {
				kind := core.FailCrash
				var app *AppError
				if errors.As(err, &app) {
					kind = core.FailAppError
				}
				e.ctrl.TaskFailed(ref, attempt, kind)
			} else {
				e.ctrl.TaskFinished(ref, attempt)
			}
			e.applyActions()
		})
	}()
}

// runBody executes the stage function, converting panics into task
// failures so a buggy operator cannot take the engine down.
func (e *Engine) runBody(ctx *TaskContext, js *jobState) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: task %s panicked: %v", ctx.ref, r)
		}
	}()
	return js.plans[ctx.ref.Stage](ctx)
}

func (e *Engine) abortTask(a *core.Action) {
	e.mu.Lock()
	tr := e.running[a.Task]
	if tr != nil && tr.attempt == int(a.Attempt) {
		delete(e.running, a.Task)
		close(tr.abort)
	}
	e.mu.Unlock()
	e.store.Wake()
}

// FailTask injects a crash into a currently running task of the stage and
// reports whether one was found — the engine-side equivalent of the
// simulator's fault injection.
func (e *Engine) FailTask(job, stage string) bool {
	e.mu.Lock()
	// Deterministic victim: the lowest task index among the stage's
	// running tasks, not whatever the map yields first.
	var victim *taskRun
	for ref, tr := range e.running {
		if ref.Job == job && ref.Stage == stage {
			if victim == nil || ref.Index < victim.ref.Index {
				victim = tr
			}
		}
	}
	e.mu.Unlock()
	if victim == nil {
		return false
	}
	e.post(func() {
		e.mu.Lock()
		cur := e.running[victim.ref]
		if cur != victim {
			e.mu.Unlock()
			return
		}
		delete(e.running, victim.ref)
		close(victim.abort)
		e.mu.Unlock()
		e.store.Wake()
		e.ctrl.TaskFailed(victim.ref, victim.attempt, core.FailCrash)
		e.applyActions()
	})
	return true
}

// AppError marks a task failure as an application-logic error, which Swift
// reports without attempting recovery (Section IV-C).
type AppError struct{ Msg string }

// Error implements error.
func (e *AppError) Error() string { return "application error: " + e.Msg }

// Store exposes the shuffle fabric (stats in tests and examples).
func (e *Engine) Store() *Store { return e.store }

// Controller exposes the Swift Admin driving this engine.
func (e *Engine) Controller() *core.Controller { return e.ctrl }
