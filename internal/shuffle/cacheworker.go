package shuffle

import "fmt"

// CacheWorker is the per-machine in-memory shuffle store of Section III-B.
// Producer tasks write shuffle segments into it; consumer tasks (local or
// remote) read them; segments are reference counted and freed once every
// consumer has taken its share ("delete them to release memory after they
// have been consumed by all successor tasks").
//
// Every segment stays in memory. The paper swaps segments to disk "only of
// the probability less than 1%", and no experiment here measures a spill,
// so the worker has no disk tier and no capacity.
type CacheWorker struct {
	used  int64 // bytes of the resident segments
	segs  map[string]*segment
	stats CacheStats
}

type segment struct {
	size int64
	data [][]byte // optional payload
	refs int      // remaining consumers
}

// CacheStats counts the activity a Cache Worker saw.
type CacheStats struct {
	Puts   int
	Gets   int
	Misses int
	Freed  int // segments released after full consumption
	// Drops counts segments removed unconditionally by Drop (failure
	// recovery discarding a failed producer's partial output, or a job's
	// segments released at its end).
	Drops int
	// UsedBytes is the worker's footprint when Stats was called. It must
	// return to zero once every segment is dropped — the leak regression
	// pinned by the store accounting tests.
	UsedBytes int64
}

// NewCacheWorker returns an empty, unbounded Cache Worker. capacity must
// be 0; any other value panics rather than being silently ignored.
func NewCacheWorker(capacity int64) *CacheWorker {
	if capacity != 0 {
		panic(fmt.Sprintf("shuffle: cache worker capacity %d: only 0 (unbounded) is supported", capacity))
	}
	return &CacheWorker{segs: make(map[string]*segment)}
}

// Stats returns a copy of the activity counters plus the current
// footprint.
func (w *CacheWorker) Stats() CacheStats {
	st := w.stats
	st.UsedBytes = w.used
	return st
}

// Len returns the number of resident segments.
func (w *CacheWorker) Len() int { return len(w.segs) }

// Put stores a shuffle segment that refs consumers will read (refs ≤ 0
// means one). Payload may be nil when only accounting is needed. It
// returns the bytes in use after the put. Re-putting an existing key
// replaces the previous segment — failure recovery re-writes a relaunched
// producer's partition — and the old bytes leave the count first.
func (w *CacheWorker) Put(key string, size int64, payload [][]byte, refs int) (used int64, err error) {
	if size < 0 {
		return w.used, fmt.Errorf("shuffle: cache worker: negative size for %q", key)
	}
	if old, dup := w.segs[key]; dup {
		w.used -= old.size
	}
	w.segs[key] = &segment{size: size, data: payload, refs: max(refs, 1)}
	w.used += size
	w.stats.Puts++
	return w.used, nil
}

// Get reads one consumer's view of a segment without consuming it. It
// reports the payload and whether the key exists.
func (w *CacheWorker) Get(key string) (payload [][]byte, ok bool) {
	s, ok := w.segs[key]
	if !ok {
		w.stats.Misses++
		return nil, false
	}
	w.stats.Gets++
	return s.data, true
}

// Consume records that one consumer has finished with the segment; the
// segment is freed when all consumers have. It returns whether the key
// existed.
func (w *CacheWorker) Consume(key string) bool {
	s, ok := w.segs[key]
	if !ok {
		return false
	}
	if s.refs--; s.refs == 0 {
		w.remove(key, s)
		w.stats.Freed++
	}
	return true
}

// Drop removes a segment unconditionally. It reports whether the key
// existed.
func (w *CacheWorker) Drop(key string) bool {
	s, ok := w.segs[key]
	if ok {
		w.remove(key, s)
		w.stats.Drops++
	}
	return ok
}

func (w *CacheWorker) remove(key string, s *segment) {
	w.used -= s.size
	delete(w.segs, key)
}
