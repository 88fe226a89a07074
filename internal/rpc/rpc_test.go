package rpc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestCallRoundTrip(t *testing.T) {
	s, addr := startServer(t)
	s.Register("double", func(body []byte) ([]byte, error) {
		var n int
		if err := Decode(body, &n); err != nil {
			return nil, err
		}
		return Encode(n * 2)
	})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out int
	if err := c.Call("double", 21, &out); err != nil {
		t.Fatal(err)
	}
	if out != 42 {
		t.Errorf("out = %d", out)
	}
}

func TestPing(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lat, err := c.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 || lat > 2*time.Second {
		t.Errorf("latency = %v", lat)
	}
}

func TestUnknownMethodAndHandlerError(t *testing.T) {
	s, addr := startServer(t)
	s.Register("boom", func([]byte) ([]byte, error) { return nil, errors.New("kaput") })
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("nope", nil, nil); err == nil {
		t.Error("unknown method succeeded")
	}
	err = c.Call("boom", nil, nil)
	if err == nil || err.Error() != "kaput" {
		t.Errorf("handler error = %v", err)
	}
	// Connection still usable after errors.
	if _, err := c.Ping(); err != nil {
		t.Errorf("ping after error: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	s, addr := startServer(t)
	s.Register("echo", func(b []byte) ([]byte, error) { return b, nil })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 50; j++ {
				var out string
				want := fmt.Sprintf("msg-%d-%d", i, j)
				if err := c.Call("echo", want, &out); err != nil || out != want {
					t.Errorf("echo: %v %q", err, out)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestFrameSizeLimit(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, MaxFrameSize+1)
	if err := c.Call("ping", big, nil); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("ping", nil, nil); err == nil {
		t.Error("call succeeded after server close")
	}
}

// deadlineFailConn is a net.Conn whose SetDeadline fails, covering the
// path where the kernel refuses to arm a socket timer (e.g. the fd was
// torn down underneath us).
type deadlineFailConn struct {
	net.Conn
	deadlineErr error
	closed      bool
}

func (f *deadlineFailConn) Read(b []byte) (int, error)  { return 0, io.EOF }
func (f *deadlineFailConn) Write(b []byte) (int, error) { return len(b), nil }
func (f *deadlineFailConn) Close() error                { f.closed = true; return nil }
func (f *deadlineFailConn) SetDeadline(time.Time) error { return f.deadlineErr }

func TestCallFailsWhenDeadlineCannotBeSet(t *testing.T) {
	fake := &deadlineFailConn{deadlineErr: errors.New("fd torn down")}
	// Point the redial at a port nothing listens on so the failure
	// surfaces instead of being papered over by a successful reconnect.
	c := &Client{conn: fake, addr: "127.0.0.1:1", dialTimeout: 50 * time.Millisecond}
	c.SetCallTimeout(time.Second)
	err := c.Call("ping", nil, nil)
	if err == nil {
		t.Fatal("call succeeded with a conn that cannot set deadlines")
	}
	if !strings.Contains(err.Error(), "set call deadline") {
		t.Errorf("error %q does not mention the deadline failure", err)
	}
	if !fake.closed {
		t.Error("broken conn was not closed")
	}
	c.mu.Lock()
	if c.conn != nil {
		t.Error("broken conn was not cleared; a later call would reuse it")
	}
	c.mu.Unlock()
}
