package rpc

// Flow service: the control-plane endpoints swiftd serves. A submission is
// one frame carrying the whole trace-encoded job payload; the server hands
// it to the registered FlowHandler. The types here are plain wire data —
// this file knows nothing about package flow, keeping the rpc layer
// dependency-free.

import (
	"fmt"
	"time"
)

// maxSubmissionBytes bounds one submission payload. The client refuses a
// larger one before writing; the server refuses it if one arrives anyway.
const maxSubmissionBytes = 16 << 20

// FlowSubmitChunk is one job submission: the whole payload in one frame.
type FlowSubmitChunk struct {
	ID   string // submission (job) id
	Data []byte
}

// FlowSubmitReply reports the admission outcome of a submission.
type FlowSubmitReply struct {
	Decision         string // "admitted" | "queued" | "shed"
	Level            string // "accept" | "queue" | "slow" | "shed"
	QueuePos         int
	RetryAfterMicros int64
	Reason           string // non-empty when the submission was rejected
}

// FlowStatusReply is the service's point-in-time state over the wire.
type FlowStatusReply struct {
	LiveJobs, PendingTasks, RunningTasks, DoneTasks int
	SchedQueueLen, FreeExecutors, TotalExecutors    int
	Admitted, Queued, Shed, Decisions               int64
	FlowQueueLen, MaxQueueLen                       int
	Draining                                        bool
	Level                                           string
	Panics                                          int64
	Tenants                                         []FlowTenantStatus
}

// FlowTenantStatus is one tenant's admission and occupancy state, present
// when the daemon tracks tenants (always at least the default tenant once
// anything was submitted).
type FlowTenantStatus struct {
	Tenant                 string
	Admitted, Queued, Shed int64
	QueueLen               int // current wait-queue entries
	InFlight               int // pending+running tasks in the scheduler
	Budget                 int // configured in-flight budget (0 = unbounded)
}

// FlowCancelReply reports a cancellation outcome.
type FlowCancelReply struct{ Cancelled bool }

// FlowHandler is implemented by the daemon. The submit payload is the
// trace-encoded job.
type FlowHandler interface {
	FlowSubmit(id string, payload []byte) (FlowSubmitReply, error)
	FlowStatus() (FlowStatusReply, error)
	FlowCancel(id string) (FlowCancelReply, error)
	FlowDrain() error
}

func checkSubmissionSize(id string, n int) error {
	if n > maxSubmissionBytes {
		return fmt.Errorf("rpc: flow submit %q: payload of %d bytes exceeds %d", id, n, maxSubmissionBytes)
	}
	return nil
}

// ServeFlow registers the flow endpoints on a server.
func ServeFlow(s *Server, h FlowHandler) {
	s.Register("flow.submit", func(body []byte) ([]byte, error) {
		var ch FlowSubmitChunk
		if err := Decode(body, &ch); err != nil {
			return nil, err
		}
		if err := checkSubmissionSize(ch.ID, len(ch.Data)); err != nil {
			return nil, err
		}
		rep, err := h.FlowSubmit(ch.ID, ch.Data)
		if err != nil {
			return nil, err
		}
		return Encode(rep)
	})
	s.Register("flow.status", func([]byte) ([]byte, error) {
		rep, err := h.FlowStatus()
		if err != nil {
			return nil, err
		}
		return Encode(rep)
	})
	s.Register("flow.cancel", func(body []byte) ([]byte, error) {
		var id string
		if err := Decode(body, &id); err != nil {
			return nil, err
		}
		rep, err := h.FlowCancel(id)
		if err != nil {
			return nil, err
		}
		return Encode(rep)
	})
	s.Register("flow.drain", func([]byte) ([]byte, error) {
		if err := h.FlowDrain(); err != nil {
			return nil, err
		}
		return Encode(true)
	})
}

// FlowClient speaks the flow endpoints over a Client.
type FlowClient struct{ c *Client }

// DialFlow connects to a swiftd instance.
func DialFlow(addr string, timeout time.Duration) (*FlowClient, error) {
	c, err := Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &FlowClient{c}, nil
}

// Close closes the underlying connection.
func (f *FlowClient) Close() error { return f.c.Close() }

// Submit sends one trace-encoded job payload and returns the admission
// outcome. Submissions are not idempotent, so a transport failure is
// returned, never retried.
func (f *FlowClient) Submit(id string, payload []byte) (FlowSubmitReply, error) {
	var rep FlowSubmitReply
	if err := checkSubmissionSize(id, len(payload)); err != nil {
		return rep, err
	}
	err := f.c.Call("flow.submit", &FlowSubmitChunk{ID: id, Data: payload}, &rep)
	return rep, err
}

// Status fetches the service state.
func (f *FlowClient) Status() (FlowStatusReply, error) {
	var rep FlowStatusReply
	err := f.c.Call("flow.status", nil, &rep)
	return rep, err
}

// Cancel cancels a queued or live submission by ID.
func (f *FlowClient) Cancel(id string) (bool, error) {
	var rep FlowCancelReply
	if err := f.c.Call("flow.cancel", id, &rep); err != nil {
		return false, err
	}
	return rep.Cancelled, nil
}

// Drain asks the server to stop admitting and wind down.
func (f *FlowClient) Drain() error {
	var ok bool
	return f.c.Call("flow.drain", nil, &ok)
}
