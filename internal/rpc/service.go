package rpc

import (
	"time"

	"swift/internal/engine"
)

// Cache Worker RPC service: exposes a machine's shuffle segments to remote
// executors — the Remote Shuffle pull path of Section III-B when executors
// and Cache Workers live in different processes. Segments cross the wire
// in the column codec (typed vectors, exact accounted bytes), not as
// gob-encoded []interface{} rows.

// PutRequest stores a segment. Batch is the column-codec encoding of the
// segment payload (EncodeBatch).
type PutRequest struct {
	Job     string
	Machine int
	Key     string
	Batch   []byte
}

// GetRequest fetches a segment; Get does not block remotely — the puller
// retries, exactly like a reader task polling its source Cache Worker.
type GetRequest struct {
	Key string
}

// GetResponse carries the column-codec-encoded segment if present.
type GetResponse struct {
	Found bool
	Batch []byte
}

// ServeCacheWorker registers cache.put / cache.get handlers backed by the
// given store.
func ServeCacheWorker(s *Server, store *engine.Store) {
	s.Register("cache.put", func(body []byte) ([]byte, error) {
		var req PutRequest
		if err := Decode(body, &req); err != nil {
			return nil, err
		}
		b, err := DecodeBatch(req.Batch)
		if err != nil {
			return nil, err
		}
		if err := store.PutBatch(req.Job, req.Machine, req.Key, b); err != nil {
			return nil, err
		}
		return Encode(true)
	})
	s.Register("cache.get", func(body []byte) ([]byte, error) {
		var req GetRequest
		if err := Decode(body, &req); err != nil {
			return nil, err
		}
		// Non-blocking probe: the wait aborts immediately when the
		// segment is absent; the remote puller retries, like a reader
		// task polling its source Cache Worker.
		b, ok := store.GetBatch(req.Key, func() bool { return true })
		if !ok {
			return Encode(GetResponse{})
		}
		return Encode(GetResponse{Found: true, Batch: EncodeBatch(b)})
	})
}

// CacheClient pulls shuffle segments from a remote Cache Worker.
type CacheClient struct{ c *Client }

// DialCache connects to a Cache Worker service.
func DialCache(addr string) (*CacheClient, error) {
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &CacheClient{c: c}, nil
}

// PutBatch stores a segment remotely.
func (cc *CacheClient) PutBatch(job string, machine int, key string, b *engine.Batch) error {
	var ok bool
	req := PutRequest{Job: job, Machine: machine, Key: key, Batch: EncodeBatch(b)}
	return cc.c.Call("cache.put", req, &ok)
}

// GetBatch fetches a segment; found is false when the producer has not
// written it yet.
func (cc *CacheClient) GetBatch(key string) (b *engine.Batch, found bool, err error) {
	var resp GetResponse
	if err := cc.c.Call("cache.get", GetRequest{Key: key}, &resp); err != nil {
		return nil, false, err
	}
	if !resp.Found {
		return nil, false, nil
	}
	b, err = DecodeBatch(resp.Batch)
	if err != nil {
		return nil, false, err
	}
	return b, true, nil
}

// Close shuts the underlying connection.
func (cc *CacheClient) Close() error { return cc.c.Close() }
