package flow

import (
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/sim"
)

// Pump is the admission protocol between arriving jobs, a Controller and
// the scheduler behind it, written once: swiftd's Service, the chaos soak
// and the flow-burst experiment all run these lines, so the overload soak
// proves what the daemon serves. Like the Controller it holds no lock and
// no clock — the caller serialises calls and passes time in.
type Pump struct {
	Flow *Controller
	// Snapshot reads the scheduler's state. It is called afresh before
	// every decision: each admission changes it.
	Snapshot func() core.StateSnapshot
	// Admit hands an admitted job to the scheduler. waited is how long the
	// job sat in the wait queue and released whether it came out of it (a
	// direct admission is 0, false).
	Admit func(now sim.Time, job *dag.Job, waited sim.Duration, released bool) error
}

// Offer runs one arriving job through admission and, if it is admitted
// directly, hands it to the scheduler; Admit's error is then the result. A
// Queued job waits for Run, a Shed one comes back with the Controller's
// typed error.
func (p *Pump) Offer(now sim.Time, job *dag.Job) (Outcome, error) {
	out, err := p.Flow.Offer(now, p.Snapshot(), Item{
		ID: job.ID, Tenant: core.TenantName(job), Tasks: job.NumTasks(), Payload: job,
	})
	if err == nil && out.Decision == Admitted {
		err = p.Admit(now, job, 0, false)
	}
	return out, err
}

// Run admits queued jobs while capacity allows.
func (p *Pump) Run(now sim.Time) {
	for {
		it, ok := p.Flow.PopAdmissible(now, p.Snapshot())
		if !ok {
			return
		}
		// An invalid job found at deferred admission is dropped: its
		// submitter already saw Queued, and the Controller has counted it
		// admitted though the scheduler never took it.
		_ = p.Admit(now, it.Payload.(*dag.Job), now-it.Enqueued, true)
	}
}

// SimPump drives a Pump from a simulated engine, the way both simulated
// drivers (the chaos soak, the flow-burst experiment) do: queued work is
// pumped back in at every event boundary, and on a 1 s tick that is armed
// only while the wait queue is nonempty — the tick keeps the queue draining
// when the cluster goes quiet with the governor dry.
type SimPump struct {
	Pump
	Engine *sim.Engine

	running bool // Admit re-enters OnEvent: simrun fires its event hook from Submit
	armed   bool // a tick is scheduled
}

// Offer offers a job at the engine's current time.
func (s *SimPump) Offer(job *dag.Job) (Outcome, error) {
	out, err := s.Pump.Offer(s.Engine.Now(), job)
	s.arm()
	return out, err
}

// OnEvent is the simulated runner's event-boundary hook.
func (s *SimPump) OnEvent(now sim.Time) {
	if s.running {
		return
	}
	s.running = true
	s.Run(now)
	s.running = false
	s.arm()
}

func (s *SimPump) arm() {
	if s.armed || s.Flow.QueueLen() == 0 {
		return
	}
	s.armed = true
	s.Engine.After(sim.Second, func() {
		s.armed = false
		s.OnEvent(s.Engine.Now())
	})
}
