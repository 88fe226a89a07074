// Package rpc mirrors the shape of the real rpc layer: its Client blocks
// on the network, and serialising calls on the connection mutex is its own
// documented design (its rpc client calls are not reported under a lock;
// every other held-region fact is).
package rpc

import "sync"

// Client is the blocking network client the lockdiscipline analyzer
// forbids calling under a held mutex elsewhere in the module.
type Client struct {
	mu sync.Mutex
}

// Call pretends to do a network round-trip.
func (c *Client) Call(method string) error {
	_ = method
	return nil
}

// CallSerialised holds the connection mutex across the call — the rpc
// package's own design, so the client call is not reported.
func (c *Client) CallSerialised(method string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Call(method)
}

// Reset takes the connection mutex again through Close while holding it:
// a self-deadlock the rpc package is not exempt from.
func (c *Client) Reset() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Close() // want lockdiscipline "transitively reaches acquisition of c.mu"
}

// Close releases the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return nil
}
