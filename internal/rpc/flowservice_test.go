package rpc

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeFlowHandler records submissions and serves canned replies.
type fakeFlowHandler struct {
	mu       sync.Mutex
	payloads map[string][]byte
	drained  bool
}

func (h *fakeFlowHandler) FlowSubmit(id string, payload []byte) (FlowSubmitReply, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.payloads == nil {
		h.payloads = make(map[string][]byte)
	}
	h.payloads[id] = append([]byte(nil), payload...)
	return FlowSubmitReply{Decision: "admitted", Level: "accept"}, nil
}

func (h *fakeFlowHandler) FlowStatus() (FlowStatusReply, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return FlowStatusReply{LiveJobs: len(h.payloads), Level: "accept"}, nil
}

func (h *fakeFlowHandler) FlowCancel(id string) (FlowCancelReply, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.payloads[id]
	delete(h.payloads, id)
	return FlowCancelReply{Cancelled: ok}, nil
}

func (h *fakeFlowHandler) FlowDrain() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.drained = true
	return nil
}

func startFlowServer(t *testing.T) (*fakeFlowHandler, *FlowClient) {
	t.Helper()
	h := &fakeFlowHandler{}
	s, addr := startServer(t)
	ServeFlow(s, h)
	fc, err := DialFlow(addr, time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = fc.Close() })
	return h, fc
}

// Status, cancel and drain round-trip.
func TestFlowEndpointsRoundTrip(t *testing.T) {
	h, fc := startFlowServer(t)
	if _, err := fc.Submit("job-b", []byte("payload")); err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := fc.Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.LiveJobs != 1 {
		t.Fatalf("status live jobs = %d, want 1", st.LiveJobs)
	}
	ok, err := fc.Cancel("job-b")
	if err != nil || !ok {
		t.Fatalf("cancel = %v, %v; want true, nil", ok, err)
	}
	if ok, _ := fc.Cancel("job-b"); ok {
		t.Fatal("second cancel reported cancelled")
	}
	if err := fc.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	h.mu.Lock()
	drained := h.drained
	h.mu.Unlock()
	if !drained {
		t.Fatal("drain not delivered to handler")
	}
}

// Clients that begin a submission and hang up mid-frame leave nothing on
// the server: after 65 of them, the next client's 1 MiB submission arrives
// whole and is admitted.
func TestAbandonedSubmissionsLeaveNothingBehind(t *testing.T) {
	h := &fakeFlowHandler{}
	s, addr := startServer(t)
	ServeFlow(s, h)
	body := FlowSubmitChunk{ID: "abandoned", Data: bytes.Repeat([]byte("x"), 4096)}.appendWire(nil)
	full, err := appendFrame(nil, 1, "flow.submit", "", body)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 65; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(full[:len(full)/2]); err != nil {
			t.Fatal(err)
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitServing(t, s, 0) // every serving goroutine saw its hang-up and left
	fc, err := DialFlow(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	payload := bytes.Repeat([]byte("swift-flow-"), (1<<20)/11)
	rep, err := fc.Submit("job-66", payload)
	if err != nil || rep.Decision != "admitted" {
		t.Fatalf("submission after 65 abandoned ones: %+v, %v", rep, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.payloads) != 1 || !bytes.Equal(h.payloads["job-66"], payload) {
		t.Fatalf("handler holds %d submissions, want job-66 alone and intact", len(h.payloads))
	}
}

// A payload over maxSubmissionBytes is refused by the client before a byte
// is written: the client here has no connection, so any call would dial
// the server.
func TestSubmitOverBoundRefusedByClient(t *testing.T) {
	s, addr := startServer(t)
	fc := &FlowClient{c: &Client{addr: addr, dialTimeout: time.Second}}
	_, err := fc.Submit("big", make([]byte, maxSubmissionBytes+1))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized submit error = %v", err)
	}
	assertNotServing(t, s)
}

// The server refuses the same payload when a raw client sends it anyway,
// keeps nothing of it, and keeps serving the connection.
func TestSubmitOverBoundRefusedByServer(t *testing.T) {
	h, fc := startFlowServer(t)
	var rep FlowSubmitReply
	err := fc.c.Call("flow.submit", &FlowSubmitChunk{ID: "big", Data: make([]byte, maxSubmissionBytes+1)}, &rep)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized raw submit error = %v", err)
	}
	if _, err := fc.Submit("at-bound", make([]byte, maxSubmissionBytes)); err != nil {
		t.Fatalf("a submission at the bound: %v", err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, kept := h.payloads["big"]; kept || len(h.payloads) != 1 {
		t.Fatalf("handler holds %d submissions, want at-bound alone", len(h.payloads))
	}
}
