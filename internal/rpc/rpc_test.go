package rpc

import (
	"errors"
	"fmt"
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

// echo round-trips msg through a server's "echo" handler.
func echo(c *Client, msg string) error {
	var out string
	if err := c.Call("echo", msg, &out); err != nil {
		return fmt.Errorf("echo %q: %w", msg, err)
	}
	if out != msg {
		return fmt.Errorf("echo %q came back as %q", msg, out)
	}
	return nil
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

func TestUnknownMethodAndHandlerError(t *testing.T) {
	s, addr := startServer(t)
	s.Register("boom", func([]byte) ([]byte, error) { return nil, errors.New("kaput") })
	s.Register("echo", func(b []byte) ([]byte, error) { return b, nil })
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
	if err := echo(c, "after error"); err != nil {
		t.Error(err)
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
	if err := c.Call("echo", big, nil); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s := NewServer()
	s.Register("echo", func(b []byte) ([]byte, error) { return b, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := echo(c, "before close"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("echo", "after close", nil); err == nil {
		t.Error("call succeeded after server close")
	}
}
