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

// A per-call deadline bounds the wait for a stuck handler, and the broken
// stream is discarded so later calls do not read the stale reply.
func TestCallDeadline(t *testing.T) {
	s, addr := startServer(t)
	release := make(chan struct{})
	s.Register("slow", func([]byte) ([]byte, error) {
		<-release
		return Encode("late")
	})
	defer close(release)

	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetCallTimeout(50 * time.Millisecond)

	start := time.Now()
	if err := c.Call("slow", nil, nil); err == nil {
		t.Fatal("call to stuck handler returned nil error")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("deadline not enforced: waited %v", waited)
	}
	// The connection was poisoned by the abandoned reply; the client must
	// redial transparently and serve fresh calls.
	c.SetCallTimeout(time.Second)
	if _, err := c.Ping(); err != nil {
		t.Fatalf("ping after timeout: %v", err)
	}
}

// A dropped connection is redialed under the retry policy, so one broken
// TCP stream does not fail an idempotent control-plane call.
func TestRetryReconnects(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRetryPolicy(RetryPolicy{Max: 2, Base: 10 * time.Millisecond, Cap: 50 * time.Millisecond, Jitter: 0.2})
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	c.conn.Close() // sever the transport under the client
	if _, err := c.Ping(); err != nil {
		t.Fatalf("ping after severed connection: %v", err)
	}
}

// Without a retry policy a transport failure surfaces immediately — and
// must not be confused with a server-side error.
func TestNoRetryByDefault(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.conn.Close()
	if _, err := c.Ping(); err == nil {
		t.Fatal("ping over severed connection succeeded without retry policy")
	}
	// The connection is marked broken; an explicit later call redials even
	// without a retry policy (fresh attempt, not a retry).
	if _, err := c.Ping(); err != nil {
		t.Fatalf("redial on next call: %v", err)
	}
}

// A panicking handler produces an RPC error on that call only; the
// connection and server survive.
func TestHandlerPanicRecovered(t *testing.T) {
	s, addr := startServer(t)
	s.Register("boom", func([]byte) ([]byte, error) { panic("kaboom") })
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
	if _, err := c.Ping(); err != nil {
		t.Fatalf("ping after handler panic: %v", err)
	}
}

// Exponential backoff grows per attempt, honours the cap, and jitter stays
// within its band.
func TestRetryBackoffBounds(t *testing.T) {
	p := RetryPolicy{Max: 5, Base: 10 * time.Millisecond, Cap: 40 * time.Millisecond, Jitter: 0.5}
	for i := 0; i < 8; i++ {
		want := p.Base << uint(i)
		if want > p.Cap {
			want = p.Cap
		}
		for trial := 0; trial < 20; trial++ {
			d := p.backoff(i)
			lo := time.Duration(float64(want) * 0.5)
			hi := time.Duration(float64(want) * 1.5)
			if d < lo || d > hi {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", i, d, lo, hi)
			}
		}
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
