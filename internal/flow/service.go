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
// handlers, executor completion timers and the drain path all observe one
// consistent state machine. The wrapped controllers stay single-threaded
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

// drainLocked copies the controller's pending actions out of its reused
// buffer: the sink runs after the lock is released, when another event may
// already be refilling that buffer.
func (s *Service) drainLocked() []core.Action {
	return append([]core.Action(nil), s.ctrl.Drain()...)
}

// idleLocked reports whether a draining service has no work left.
func (s *Service) idleLocked() bool {
	return s.flow.Draining() && s.flow.QueueLen() == 0 && s.ctrl.Snapshot().LiveJobs == 0
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
	out, acts, err := s.submitLocked(now, job)
	idle := s.idleLocked()
	s.mu.Unlock()
	s.finish(now, acts, idle)
	return out, err
}

func (s *Service) submitLocked(now sim.Time, job *dag.Job) (out Outcome, acts []core.Action, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics++
			acts = append(acts, s.ctrl.Drain()...)
			err = fmt.Errorf("flow: submit %q panicked: %v", job.ID, r)
		}
	}()
	if s.submitted[job.ID] {
		return Outcome{}, nil, fmt.Errorf("flow: duplicate submission id %q", job.ID)
	}
	out, err = s.flow.Offer(now, s.ctrl.Snapshot(), Item{
		ID: job.ID, Tenant: core.TenantName(job), Tasks: job.NumTasks(), Payload: job,
	})
	if err != nil {
		return out, nil, err
	}
	s.submitted[job.ID] = true
	if out.Decision == Admitted {
		if serr := s.ctrl.SubmitJob(job); serr != nil {
			return out, s.drainLocked(), serr
		}
	}
	acts = append(acts, s.ctrl.Drain()...)
	acts = append(acts, s.pumpLocked(now)...)
	return out, acts, nil
}

// pumpLocked admits queued submissions while capacity allows.
func (s *Service) pumpLocked(now sim.Time) []core.Action {
	var acts []core.Action
	for {
		it, ok := s.flow.PopAdmissible(now, s.ctrl.Snapshot())
		if !ok {
			return acts
		}
		if err := s.ctrl.SubmitJob(it.Payload.(*dag.Job)); err != nil {
			// Invalid job discovered at deferred admission: drop it. The
			// submitter saw a Queued outcome; Status exposes the drop.
			s.flow.cfg.Metrics.Count("flow.pump_errors", 1)
		}
		acts = append(acts, s.ctrl.Drain()...)
	}
}

// TaskFinished feeds one completion event (from the daemon's executor
// timers) and pumps the wait queue with any freed capacity.
func (s *Service) TaskFinished(ref core.TaskRef, attempt int) {
	now := s.clock()
	s.mu.Lock()
	s.ctrl.TaskFinished(ref, attempt)
	acts := s.drainLocked()
	acts = append(acts, s.pumpLocked(now)...)
	idle := s.idleLocked()
	s.mu.Unlock()
	s.finish(now, acts, idle)
}

// TaskFailed feeds one failure event.
func (s *Service) TaskFailed(ref core.TaskRef, attempt int, kind core.FailureKind) {
	now := s.clock()
	s.mu.Lock()
	s.ctrl.TaskFailed(ref, attempt, kind)
	acts := s.drainLocked()
	acts = append(acts, s.pumpLocked(now)...)
	idle := s.idleLocked()
	s.mu.Unlock()
	s.finish(now, acts, idle)
}

// Tick advances the token bucket and pumps the wait queue; the daemon
// calls it periodically so queued work admits even between completions.
func (s *Service) Tick() {
	now := s.clock()
	s.mu.Lock()
	acts := s.pumpLocked(now)
	idle := s.idleLocked()
	s.mu.Unlock()
	s.finish(now, acts, idle)
}

// Cancel removes a submission: queued submissions leave the wait queue,
// admitted live jobs are aborted in the scheduler.
func (s *Service) Cancel(id string) error {
	now := s.clock()
	s.mu.Lock()
	var err error
	var acts []core.Action
	if s.flow.CancelQueued(id) {
		delete(s.submitted, id)
	} else {
		err = s.ctrl.CancelJob(id, "client request")
		acts = append(acts, s.ctrl.Drain()...)
		acts = append(acts, s.pumpLocked(now)...)
	}
	idle := s.idleLocked()
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
	acts := s.pumpLocked(now)
	idle := s.idleLocked()
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
