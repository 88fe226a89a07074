package rpc

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// A transport failure surfaces on the call that hit it — the client never
// retries, since the method may already have run — and the next call
// redials (a fresh attempt, not a retry).
func TestNoRetryByDefault(t *testing.T) {
	s, addr := startServer(t)
	s.Register("echo", func(b []byte) ([]byte, error) { return b, nil })
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.conn.Close() // sever the transport under the client
	if err := c.Call("echo", "severed", nil); err == nil {
		t.Fatal("call over a severed connection succeeded")
	}
	if err := echo(c, "redialed"); err != nil {
		t.Fatalf("next call did not redial: %v", err)
	}
}

// A call after Close returns ErrClosed without dialing: the server is left
// serving no connection.
func TestCallAfterCloseDoesNotDial(t *testing.T) {
	s, addr := startServer(t)
	s.Register("echo", func(b []byte) ([]byte, error) { return b, nil })
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitServing(t, s, 0)
	if err := c.Call("echo", "closed", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close returned %v, want ErrClosed", err)
	}
	assertNotServing(t, s)
}

// assertNotServing fails the test if s serves a connection. A server
// registers a connection before it reads the first request on it, so once
// a call is over, a dial it made is visible here.
func assertNotServing(t *testing.T, s *Server) {
	t.Helper()
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if n := len(s.conns); n != 0 {
		t.Fatalf("the client dialed: the server serves %d connections", n)
	}
}

// A panicking handler produces an RPC error on that call only; the
// connection and server survive.
func TestHandlerPanicRecovered(t *testing.T) {
	s, addr := startServer(t)
	s.Register("boom", func([]byte) ([]byte, error) { panic("kaboom") })
	s.Register("echo", func(b []byte) ([]byte, error) { return b, nil })
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("boom", nil, nil)
	if err == nil {
		t.Fatal("panicking handler returned nil error")
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not reported to caller: %v", err)
	}
	// Same connection still serves.
	if err := echo(c, "after panic"); err != nil {
		t.Fatal(err)
	}
}

// serving polls until the server is serving exactly n connections.
func waitServing(t *testing.T, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.connMu.Lock()
		serving := len(s.conns)
		s.connMu.Unlock()
		if serving == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server is serving %d connections, want %d", serving, n)
		}
	}
}

// A length prefix is a claim, not a fact: a peer that announces a 64 MiB
// frame and hangs up must cost the server what it sent, and the goroutine
// serving it must exit.
func TestLyingLengthPrefixCostsNothing(t *testing.T) {
	s, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	waitServing(t, s, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], MaxFrameSize)
	if _, err := conn.Write(append(prefix[:], "only these bytes arrive"...)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	waitServing(t, s, 0) // the serving goroutine saw the hang-up and left
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a lying 64 MiB prefix made the server allocate %d bytes", grew)
	}
}

// failingListener refuses its first fail Accepts, then blocks until closed.
type failingListener struct {
	fail   int
	calls  chan time.Time // one send per Accept call
	closed chan struct{}
}

func (l *failingListener) Accept() (net.Conn, error) {
	l.calls <- time.Now()
	if l.fail > 0 {
		l.fail--
		return nil, errors.New("accept: too many open files")
	}
	<-l.closed
	return nil, net.ErrClosed
}
func (l *failingListener) Close() error   { close(l.closed); return nil }
func (l *failingListener) Addr() net.Addr { return &net.TCPAddr{} }

// A persistent Accept error backs off exponentially instead of spinning a
// core, and Close interrupts a backoff wait.
func TestAcceptErrorBacksOff(t *testing.T) {
	const failures = 4
	ln := &failingListener{fail: failures, calls: make(chan time.Time, failures+1), closed: make(chan struct{})}
	s := NewServer()
	s.serve(ln)
	first := <-ln.calls
	var last time.Time
	for i := 0; i < failures; i++ {
		last = <-ln.calls
	}
	// Four failures wait 5+10+20+40 ms before the fifth call.
	if waited := last.Sub(first); waited < 75*time.Millisecond {
		t.Errorf("%d failed Accepts were retried within %v, want at least 75ms of backoff", failures, waited)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Close during a backoff wait returns at once.
	ln = &failingListener{fail: 1 << 30, calls: make(chan time.Time, 64), closed: make(chan struct{})}
	s = NewServer()
	s.serve(ln)
	for i := 0; i < 6; i++ { // the sixth call is followed by a 160 ms wait
		<-ln.calls
	}
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 100*time.Millisecond {
		t.Errorf("Close waited %v for a backoff sleep", waited)
	}
}

// A conn accepted while Close runs reaches serveConn after Close has
// walked s.conns: serveConn must close it rather than register it, or it
// blocks in readFrame until the peer hangs up and Close's wg.Wait with it.
func TestConnAcceptedDuringCloseIsClosed(t *testing.T) {
	s := NewServer()
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	s.wg.Add(1)
	go func() {
		s.serveConn(server)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("serveConn still serving a conn that arrived after Close")
	}
}
