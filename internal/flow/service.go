package flow

import (
	"fmt"
	"sync"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/sim"
)

// Service is the always-on façade swiftd exposes: one mutex linearises
// flow admission and every core.Controller event, so concurrent RPC
// handlers, the daemon's completion driver and the drain path all observe
// one consistent state machine. The wrapped controllers stay single-threaded
// and deterministic; the service owns no clock either — callers inject one
// (swiftd injects monotonic wall micros, tests inject a fake).
//
// Actions emitted by the core controller are collected under the lock and
// handed to the registered sink after it is released, so a driver may call
// straight back into the service (e.g. to finish a zero-cost task) without
// deadlocking.
type Service struct {
	clock func() sim.Time
	sink  func(now sim.Time, acts []core.Action)

	mu        sync.Mutex
	flow      *Controller
	ctrl      *core.Controller
	submitted map[string]bool // IDs ever accepted (admitted or queued)
	panics    int64

	drainedOnce sync.Once
	drained     chan struct{}
}

// ServiceStatus is a point-in-time view of the service.
type ServiceStatus struct {
	Snapshot core.StateSnapshot
	Flow     Stats
	Tenants  []TenantStat // per-tenant admission view, sorted by name
	Level    Level        // admission level a 1-task arrival would see
	Panics   int64        // submissions isolated after panicking
}

// NewService builds a service over a fresh core controller. The flow
// controller's tenant-budget enforcement reads the scheduler's O(1)
// per-tenant in-flight counters.
func NewService(cl *cluster.Cluster, copts core.Options, fcfg Config, clock func() sim.Time) *Service {
	s := &Service{
		clock:     clock,
		flow:      NewController(fcfg, cl.NumExecutors()),
		ctrl:      core.NewController(cl, copts),
		submitted: make(map[string]bool),
		drained:   make(chan struct{}),
	}
	s.flow.SetTenantLookup(s.ctrl.TenantInFlight)
	return s
}

// SetActionSink registers the driver callback receiving controller
// actions. Must be called before the service starts accepting work; the
// sink runs outside the service lock.
func (s *Service) SetActionSink(fn func(now sim.Time, acts []core.Action)) { s.sink = fn }

// finish dispatches collected actions and closes the drained channel once
// the service is idle after Drain. Called outside the lock.
func (s *Service) finish(now sim.Time, acts []core.Action, idle bool) {
	if s.sink != nil && len(acts) > 0 {
		s.sink(now, acts)
	}
	if idle {
		s.drainedOnce.Do(func() { close(s.drained) })
	}
}

// drainLocked closes one locked event: it copies the actions the controller
// accumulated since the last call out of its reused buffer — the sink runs
// after the lock is released, when another event may already be refilling
// it — and reports whether a draining service has no work left.
func (s *Service) drainLocked() (acts []core.Action, idle bool) {
	acts = append(acts, s.ctrl.Drain()...)
	idle = s.flow.Draining() && s.flow.QueueLen() == 0 && s.ctrl.Snapshot().LiveJobs == 0
	return acts, idle
}

// Submit pushes one job through admission. A panic anywhere in validation
// or scheduling is isolated to this request: the service stays up and the
// submitter gets an error.
func (s *Service) Submit(job *dag.Job) (Outcome, error) {
	if job == nil {
		return Outcome{}, fmt.Errorf("flow: nil job")
	}
	now := s.clock()
	s.mu.Lock()
	out, err := s.submitLocked(now, job)
	s.pumpLocked(now)
	acts, idle := s.drainLocked()
	s.mu.Unlock()
	s.finish(now, acts, idle)
	return out, err
}

func (s *Service) submitLocked(now sim.Time, job *dag.Job) (out Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics++
			err = fmt.Errorf("flow: submit %q panicked: %v", job.ID, r)
		}
	}()
	if s.submitted[job.ID] {
		return Outcome{}, fmt.Errorf("flow: duplicate submission id %q", job.ID)
	}
	out, err = s.flow.Offer(now, s.ctrl.Snapshot(), Item{
		ID: job.ID, Tenant: core.TenantName(job), Tasks: job.NumTasks(), Payload: job,
	})
	if err != nil {
		return out, err
	}
	s.submitted[job.ID] = true
	if out.Decision == Admitted {
		err = s.ctrl.SubmitJob(job)
	}
	return out, err
}

// pumpLocked admits queued submissions while capacity allows.
func (s *Service) pumpLocked(now sim.Time) {
	for {
		it, ok := s.flow.PopAdmissible(now, s.ctrl.Snapshot())
		if !ok {
			return
		}
		if err := s.ctrl.SubmitJob(it.Payload.(*dag.Job)); err != nil {
			// Invalid job discovered at deferred admission: drop it. The
			// submitter saw a Queued outcome; Status exposes the drop.
			s.flow.cfg.Metrics.Count("flow.pump_errors", 1)
		}
	}
}

// TasksFinished feeds a batch of completion events (swiftd's completion
// driver pops them off its DeadlineHeap) under one lock hold: every
// completion reaches the controller in order, the wait queue is pumped once
// with the capacity they freed together, and the sink gets the batch's
// actions in one call. Compared with one call per completion only the pump
// moves — a queued job may admit later within the batch, never earlier than
// its capacity exists — and the action stream is the same concatenation.
//
//lint:hotpath
func (s *Service) TasksFinished(batch []Completion) {
	now := s.clock()
	s.mu.Lock()
	for i := range batch {
		s.ctrl.TaskFinished(batch[i].Ref, batch[i].Attempt)
	}
	//lint:allow hotpath releasing a queued job runs core.SubmitJob (validate, partition, build monitors): per-job work the completions that freed its capacity amortise; with an empty wait queue the pump is one PopAdmissible
	s.pumpLocked(now)
	acts, idle := s.drainLocked()
	s.mu.Unlock()
	s.finish(now, acts, idle)
}

// TaskFinished feeds one completion event: a batch of one.
func (s *Service) TaskFinished(ref core.TaskRef, attempt int) {
	s.TasksFinished([]Completion{{Ref: ref, Attempt: attempt}})
}

// TaskFailed feeds one failure event.
func (s *Service) TaskFailed(ref core.TaskRef, attempt int, kind core.FailureKind) {
	now := s.clock()
	s.mu.Lock()
	s.ctrl.TaskFailed(ref, attempt, kind)
	s.pumpLocked(now)
	acts, idle := s.drainLocked()
	s.mu.Unlock()
	s.finish(now, acts, idle)
}

// Tick advances the token bucket and pumps the wait queue; the daemon
// calls it periodically so queued work admits even between completions.
func (s *Service) Tick() {
	now := s.clock()
	s.mu.Lock()
	s.pumpLocked(now)
	acts, idle := s.drainLocked()
	s.mu.Unlock()
	s.finish(now, acts, idle)
}

// Cancel removes a submission: queued submissions leave the wait queue,
// admitted live jobs are aborted in the scheduler.
func (s *Service) Cancel(id string) error {
	now := s.clock()
	s.mu.Lock()
	var err error
	if s.flow.CancelQueued(id) {
		delete(s.submitted, id)
	} else {
		err = s.ctrl.CancelJob(id, "client request")
	}
	s.pumpLocked(now)
	acts, idle := s.drainLocked()
	s.mu.Unlock()
	s.finish(now, acts, idle)
	return err
}

// Drain initiates shutdown: new offers shed, queued work re-admits
// (governor bypassed), and Drained closes once nothing is left in flight.
func (s *Service) Drain() {
	now := s.clock()
	s.mu.Lock()
	s.flow.Drain()
	s.pumpLocked(now)
	acts, idle := s.drainLocked()
	s.mu.Unlock()
	s.finish(now, acts, idle)
}

// Drained is closed once a draining service has no queued or live work.
func (s *Service) Drained() <-chan struct{} { return s.drained }

// Status returns a point-in-time view.
func (s *Service) Status() ServiceStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.ctrl.Snapshot()
	return ServiceStatus{
		Snapshot: snap,
		Flow:     s.flow.Stats(),
		Tenants:  s.flow.TenantStats(),
		Level:    s.flow.LevelFor(snap, 1),
		Panics:   s.panics,
	}
}

// JobDone reports whether a job completed successfully.
func (s *Service) JobDone(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.JobDone(id)
}

// JobFailed reports whether a job was abandoned.
func (s *Service) JobFailed(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.JobFailed(id)
}

// Invariants runs the core controller's full self-audit under the lock.
func (s *Service) Invariants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.CheckInvariants()
}
