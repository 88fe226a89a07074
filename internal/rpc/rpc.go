// Package rpc implements the small framed binary protocol Swift's
// processes speak: length-prefixed request/response messages over TCP (the
// byte layout is in wire.go), a method registry on the server side, and
// client-side call/heartbeat helpers. swiftd's control plane is served
// through it (flowservice.go); the admin/executor heartbeats of Section
// IV-A use Ping. The package imports only the standard library.
package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Handler serves one method: it receives the encoded request body (see
// Decode) and returns the encoded response body (see Encode). The request
// body is the handler's to keep, and it may return it as the response.
type Handler func(body []byte) ([]byte, error)

// Server accepts connections and dispatches registered methods.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	ln       net.Listener
	wg       sync.WaitGroup
	closed   chan struct{}
	connMu   sync.Mutex
	conns    map[net.Conn]bool
}

// NewServer returns an empty server; register methods before Serve.
func NewServer() *Server {
	s := &Server{
		handlers: make(map[string]Handler),
		closed:   make(chan struct{}),
		conns:    make(map[net.Conn]bool),
	}
	s.Register("ping", func([]byte) ([]byte, error) { return Encode([]byte("pong")) })
	return s
}

// Register installs a method handler. Re-registering replaces.
func (s *Server) Register(method string, h Handler) {
	s.mu.Lock()
	s.handlers[method] = h
	s.mu.Unlock()
}

// Listen binds the address ("127.0.0.1:0" for an ephemeral port) and
// starts serving in the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.serve(ln)
	return ln.Addr().String(), nil
}

// serve starts the accept loop on ln.
func (s *Server) serve(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
}

// Accept failures back off exponentially between these bounds: a
// persistent one (EMFILE) must not spin a core, and a transient one still
// retries within milliseconds.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			backoff = min(max(2*backoff, acceptBackoffMin), acceptBackoffMax)
			t := time.NewTimer(backoff)
			select {
			case <-s.closed:
				t.Stop()
				return
			case <-t.C:
				continue
			}
		}
		backoff = 0
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.connMu.Lock()
	s.conns[conn] = true
	s.connMu.Unlock()
	defer func() {
		_ = conn.Close() // conn is already drained or torn
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
	}()
	br := bufio.NewReader(conn)
	var wbuf []byte
	for {
		req, err := readFrame(br)
		if err != nil {
			return
		}
		s.mu.RLock()
		h := s.handlers[string(req.method)]
		s.mu.RUnlock()
		var body []byte
		var errMsg string
		if h == nil {
			errMsg = fmt.Sprintf("rpc: unknown method %q", req.method)
		} else if body, err = safeCall(h, req.body); err != nil {
			body, errMsg = nil, err.Error()
		}
		if err := writeFrame(conn, &wbuf, req.id, "", errMsg, body); err != nil {
			return
		}
	}
}

// safeCall invokes a handler, converting a panic into an RPC error so one
// bad request cannot kill the serving goroutine (and with it every other
// in-flight call on the connection).
func safeCall(h Handler, body []byte) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rpc: handler panic: %v", r)
		}
	}()
	return h(body)
}

// Close stops accepting, severs live connections, and waits for the
// handler goroutines to drain.
func (s *Server) Close() error {
	close(s.closed)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.connMu.Lock()
	for c := range s.conns {
		_ = c.Close() // severing: the serving goroutine sees the read error
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

// RetryPolicy bounds how a client re-attempts a call after a transport
// failure: up to Max redials with exponential backoff starting at Base,
// capped at Cap, with ±Jitter (a fraction) of randomisation so a fleet of
// executors retrying a recovered Admin does not thunder in lockstep.
type RetryPolicy struct {
	Max    int
	Base   time.Duration
	Cap    time.Duration
	Jitter float64
	// MaxElapsed bounds the total time a call may spend across attempts
	// and backoff sleeps, so a redial loop cannot exceed a caller's
	// deadline regardless of Max. Zero means count-bounded only.
	MaxElapsed time.Duration
	// Rand, when set, is the jitter source; seeding it makes backoff
	// sequences reproducible. Nil uses the process-global source.
	Rand *rand.Rand
}

// backoff returns the sleep before retry attempt i (0-based):
// exponential from Base, capped at Cap, with ±Jitter randomisation,
// floored at Base — callers can rely on Base ≤ sleep ≤ Cap·(1+Jitter).
func (p RetryPolicy) backoff(i int) time.Duration {
	shift := uint(i)
	if shift > 31 {
		shift = 31 // Base<<32 would overflow any realistic Base
	}
	d := p.Base << shift
	if d < 0 || (p.Cap > 0 && d > p.Cap) {
		d = p.Cap
	}
	if p.Jitter > 0 {
		r := rand.Float64
		if p.Rand != nil {
			r = p.Rand.Float64
		}
		d += time.Duration((2*r() - 1) * p.Jitter * float64(d))
	}
	if d < p.Base {
		d = p.Base
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Client is a single-connection RPC client. Calls are serialised; Swift's
// executors keep one connection per peer (the connection-count arithmetic
// of Section III-B). Transport failures mark the connection broken; the
// next attempt redials.
type Client struct {
	mu          sync.Mutex
	conn        net.Conn      // nil when broken
	br          *bufio.Reader // over conn; nil until the first call on it
	wbuf        []byte        // reused frame buffer for requests
	next        uint64
	addr        string
	dialTimeout time.Duration
	callTimeout time.Duration
	retry       RetryPolicy
	// dial is the redial function (net.DialTimeout in production;
	// in-package tests substitute fakes).
	dial func(addr string, timeout time.Duration) (net.Conn, error)
	// quit is closed by Close before it takes mu, so a Call sleeping in
	// backoff (which holds mu) wakes up instead of stalling the Close.
	quit     chan struct{}
	quitOnce sync.Once
}

// ErrClosed is returned by calls interrupted by Close.
var ErrClosed = errors.New("rpc: client closed")

// tcpDial is the production dial function.
func tcpDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// Dial connects to a server. The timeout also bounds later redials.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, addr: addr, dialTimeout: timeout, dial: tcpDial, quit: make(chan struct{})}, nil
}

// SetCallTimeout sets a per-call deadline covering the write and the wait
// for the reply. Zero (the default) means no deadline.
func (c *Client) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	c.callTimeout = d
	c.mu.Unlock()
}

// SetRetryPolicy enables transport-failure retries (redial + backoff).
// The zero policy (the default) fails calls on the first transport error.
// Only enable it for idempotent methods: a timed-out call may have
// executed on the server.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	c.mu.Lock()
	c.retry = p
	c.mu.Unlock()
}

// Call invokes a method with an encodable request (see Encode), decoding
// the reply into resp (a pointer) unless resp is nil. Server-side errors
// (including unknown methods and handler panics) are returned as-is and
// never retried; transport errors retry under the client's RetryPolicy.
func (c *Client) Call(method string, req interface{}, resp interface{}) error {
	var body []byte
	if req != nil {
		var err error
		if body, err = Encode(req); err != nil {
			return fmt.Errorf("rpc: encode request: %w", err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	var err error
	for attempt := 0; ; attempt++ {
		if c.isClosed() {
			return ErrClosed
		}
		err = c.callLocked(method, body, resp)
		var transport *transportError
		if err == nil || !errors.As(err, &transport) {
			return err
		}
		if attempt >= c.retry.Max {
			return transport.err
		}
		sleep := c.retry.backoff(attempt)
		// The elapsed-time budget covers the sleep about to happen: if
		// finishing it would overrun MaxElapsed, give up now rather than
		// wake past the caller's deadline.
		if c.retry.MaxElapsed > 0 && time.Since(start)+sleep > c.retry.MaxElapsed {
			return transport.err
		}
		if !c.sleep(sleep) {
			return ErrClosed
		}
	}
}

// sleep waits d while remaining interruptible by Close; it reports false
// when the client was closed.
func (c *Client) sleep(d time.Duration) bool {
	if d <= 0 {
		return !c.isClosed()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.quit:
		return false
	}
}

func (c *Client) isClosed() bool {
	if c.quit == nil {
		return false
	}
	select {
	case <-c.quit:
		return true
	default:
		return false
	}
}

// transportError wraps connection-level failures (as opposed to errors the
// server returned), marking the call retryable.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// callLocked performs one attempt, redialing if the connection is broken.
// On any transport failure the connection is closed and cleared: a timed-
// out or torn stream may hold a stale reply that would desynchronise every
// later call.
func (c *Client) callLocked(method string, body []byte, resp interface{}) error {
	if c.conn == nil {
		dial := c.dial
		if dial == nil {
			dial = tcpDial
		}
		conn, err := dial(c.addr, c.dialTimeout)
		if err != nil {
			return &transportError{err}
		}
		c.conn = conn
	}
	if c.callTimeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.callTimeout)); err != nil {
			return c.broken(fmt.Errorf("rpc: set call deadline: %w", err))
		}
		defer func() {
			// A connection whose deadline cannot be cleared would time out
			// some future call at an arbitrary moment; drop it now and let
			// the next call redial.
			if c.conn != nil {
				if err := c.conn.SetDeadline(time.Time{}); err != nil {
					_ = c.drop() // already discarding the conn
				}
			}
		}()
	}
	if c.br == nil {
		c.br = bufio.NewReader(c.conn)
	}
	c.next++
	id := c.next
	if err := writeFrame(c.conn, &c.wbuf, id, method, "", body); err != nil {
		return c.broken(err)
	}
	reply, err := readFrame(c.br)
	if err != nil {
		return c.broken(err)
	}
	if reply.id != id {
		return c.broken(fmt.Errorf("rpc: reply id %d for request %d", reply.id, id))
	}
	if len(reply.err) != 0 {
		return errors.New(string(reply.err))
	}
	if resp != nil {
		if err := Decode(reply.body, resp); err != nil {
			return fmt.Errorf("rpc: decode response: %w", err)
		}
	}
	return nil
}

// drop closes the connection and forgets it together with the reader that
// may hold bytes of it, so the next call redials onto a clean stream.
func (c *Client) drop() error {
	err := c.conn.Close()
	c.conn, c.br = nil, nil
	return err
}

func (c *Client) broken(err error) error {
	if c.conn != nil {
		_ = c.drop() // the call already fails with err; nothing to add
	}
	return &transportError{err}
}

// Ping round-trips a heartbeat and returns the latency.
func (c *Client) Ping() (time.Duration, error) {
	t0 := time.Now()
	var out []byte
	if err := c.Call("ping", []byte{}, &out); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// Close shuts the connection. A Call sleeping in retry backoff (it holds
// the client mutex) is woken first via the quit channel, so Close never
// blocks for a backoff's duration.
func (c *Client) Close() error {
	if c.quit != nil {
		c.quitOnce.Do(func() { close(c.quit) })
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	return c.drop()
}
