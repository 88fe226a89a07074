// Package rpc implements the small framed binary protocol Swift's
// processes speak: length-prefixed request/response messages over TCP (the
// byte layout is in wire.go), a method registry on the server side, and a
// serialised client. swiftd's control plane is served through it
// (flowservice.go). The admin/executor heartbeats of Section IV-A are not
// rpc traffic: core simulates them (heartbeat.go). The package imports
// only the standard library.
package rpc

import (
	"bufio"
	"errors"
	"fmt"
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
	return &Server{
		handlers: make(map[string]Handler),
		closed:   make(chan struct{}),
		conns:    make(map[net.Conn]bool),
	}
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
	// A conn accepted while Close runs may arrive after Close has walked
	// s.conns; registering it then would leave it open and wg.Wait hung.
	s.connMu.Lock()
	select {
	case <-s.closed:
		s.connMu.Unlock()
		_ = conn.Close() // never served
		return
	default:
	}
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

// Client is a single-connection RPC client. Calls are serialised; Swift's
// executors keep one connection per peer (the connection-count arithmetic
// of Section III-B). A transport failure fails its call and drops the
// connection; the next call redials — a fresh attempt, never a retry of the
// failed one, whose method may already have run on the server.
type Client struct {
	mu          sync.Mutex
	conn        net.Conn      // nil when broken
	br          *bufio.Reader // over conn; nil until the first call on it
	wbuf        []byte        // reused frame buffer for requests
	next        uint64
	addr        string
	dialTimeout time.Duration
	closed      bool
}

// ErrClosed is returned by calls made after Close.
var ErrClosed = errors.New("rpc: client closed")

// Dial connects to a server. The timeout also bounds later redials.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, addr: addr, dialTimeout: timeout}, nil
}

// Call invokes a method with an encodable request (see Encode), decoding
// the reply into resp (a pointer) unless resp is nil. Server-side errors
// (including unknown methods and handler panics) are returned as-is and
// leave the connection usable; transport errors drop it.
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
	if c.closed {
		return ErrClosed
	}
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
		if err != nil {
			return err
		}
		c.conn = conn
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

// broken closes the connection and forgets it together with the reader
// that may hold bytes of it, so the next call redials onto a clean stream
// instead of reading a stale reply. It returns err, which the call fails
// with.
func (c *Client) broken(err error) error {
	_ = c.conn.Close() // the call already fails with err; nothing to add
	c.conn, c.br = nil, nil
	return err
}

// Close shuts the connection; later calls return ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.br = nil, nil
	return err
}
