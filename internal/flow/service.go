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
	adm       Pump            // flow in front of ctrl
	submitted map[string]bool // IDs ever accepted (admitted or queued)
	panics    int64
	// bufs is the free list of action buffers: an event with actions
	// takes one under the lock and finish gives it back once the sink has
	// returned, so the daemon's steady state copies actions into buffers
	// it already has. At most maxSpareBufs wait here.
	bufs [][]core.Action

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
	s.adm = Pump{Flow: s.flow, Snapshot: s.ctrl.Snapshot, Admit: s.admitLocked}
	return s
}

// SetActionSink registers the driver callback receiving controller
// actions. Must be called before the service starts accepting work; the
// sink runs outside the service lock. acts is valid only until the sink
// returns: the service reuses its buffer for a later event, so a sink
// copies what it keeps.
func (s *Service) SetActionSink(fn func(now sim.Time, acts []core.Action)) { s.sink = fn }

// maxSpareBufs bounds the action-buffer free list: one buffer per event
// in flight between its lock hold and its sink's return, and swiftd runs
// a few such events at once (rpc handlers, the completion driver, ticks).
const maxSpareBufs = 8

// finish dispatches collected actions, gives their buffer back to the
// free list and closes the drained channel once the service is idle after
// Drain. Called outside the lock.
func (s *Service) finish(now sim.Time, acts []core.Action, idle bool) {
	if len(acts) > 0 {
		if s.sink != nil {
			s.sink(now, acts)
		}
		clear(acts) // a spare pins no job name or action detail
		s.mu.Lock()
		if len(s.bufs) < maxSpareBufs {
			s.bufs = append(s.bufs, acts[:0])
		}
		s.mu.Unlock()
	}
	if idle {
		s.drainedOnce.Do(func() { close(s.drained) })
	}
}

// drainLocked closes one locked event: it copies the actions the controller
// accumulated since the last call out of its reused buffer into one from
// the free list — the sink runs after the lock is released, when another
// event may already be refilling the controller's — and reports whether a
// draining service has no work left.
func (s *Service) drainLocked() (acts []core.Action, idle bool) {
	if drained := s.ctrl.Drain(); len(drained) > 0 {
		if n := len(s.bufs); n > 0 {
			acts = s.bufs[n-1]
			s.bufs = s.bufs[:n-1]
		}
		acts = append(acts, drained...)
	}
	idle = s.flow.Draining() && s.flow.QueueLen() == 0 && s.ctrl.Snapshot().LiveJobs == 0
	return acts, idle
}

// event runs one locked event: fn (nil for a bare tick), then the pump
// with whatever capacity fn freed, then — outside the lock — the sink.
func (s *Service) event(fn func(now sim.Time)) {
	now := s.clock()
	s.mu.Lock()
	if fn != nil {
		fn(now)
	}
	s.adm.Run(now)
	acts, idle := s.drainLocked()
	s.mu.Unlock()
	s.finish(now, acts, idle)
}

// Submit pushes one job through admission. A panic anywhere in validation
// or scheduling is isolated to this request: the service stays up and the
// submitter gets an error.
func (s *Service) Submit(job *dag.Job) (out Outcome, err error) {
	if job == nil {
		return Outcome{}, fmt.Errorf("flow: nil job")
	}
	s.event(func(now sim.Time) { out, err = s.submitLocked(now, job) })
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
	out, err = s.adm.Offer(now, job)
	if out.Decision == Queued {
		s.submitted[job.ID] = true
	}
	return out, err
}

// admitLocked is the pump's admit callback. A directly admitted id is
// recorded before the scheduler sees the job, so it stays taken even if
// SubmitJob rejects it or panics.
func (s *Service) admitLocked(_ sim.Time, job *dag.Job, _ sim.Duration, _ bool) error {
	s.submitted[job.ID] = true
	return s.ctrl.SubmitJob(job)
}

// TasksFinished feeds a batch of completion events (swiftd's completion
// driver pops them off its DeadlineHeap) under one lock hold: every
// completion reaches the controller in order, the wait queue is pumped once
// with the capacity they freed together, and the sink gets the batch's
// actions in one call. Compared with one call per completion only the pump
// moves — a queued job may admit later within the batch, never earlier than
// its capacity exists — and the action stream is the same concatenation.
func (s *Service) TasksFinished(batch []Completion) {
	// Not allocation-free when the pump releases a queued job: that runs
	// core.SubmitJob (validate, partition, build monitors) through the
	// pump's Admit callback — per-job work the completions that freed its
	// capacity amortise. With an empty wait queue the pump is one
	// PopAdmissible.
	s.event(func(sim.Time) {
		for i := range batch {
			c := &batch[i]
			s.ctrl.FinishTask(c.Job, int(c.Stage), int(c.Index), int(c.Attempt))
		}
	})
}

// TaskFinished feeds one completion event named by its task reference,
// which the controller resolves once.
func (s *Service) TaskFinished(ref core.TaskRef, attempt int) {
	s.event(func(sim.Time) { s.ctrl.TaskFinished(ref, attempt) })
}

// Tick advances the token bucket and pumps the wait queue; the daemon
// calls it periodically so queued work admits even between completions.
func (s *Service) Tick() { s.event(nil) }

// Cancel removes a submission: queued submissions leave the wait queue,
// admitted live jobs are aborted in the scheduler.
func (s *Service) Cancel(id string) (err error) {
	s.event(func(sim.Time) {
		if s.flow.CancelQueued(id) {
			delete(s.submitted, id)
		} else {
			err = s.ctrl.CancelJob(id, "client request")
		}
	})
	return err
}

// Drain initiates shutdown: new offers shed, queued work re-admits
// (governor bypassed), and Drained closes once nothing is left in flight.
func (s *Service) Drain() { s.event(func(sim.Time) { s.flow.Drain() }) }

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
