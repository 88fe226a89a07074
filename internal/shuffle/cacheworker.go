package shuffle

import (
	"container/list"
	"fmt"
	"sort"
)

// CacheWorker is the per-machine in-memory shuffle store of Section III-B.
// Producer tasks write shuffle segments into it; consumer tasks (local or
// remote) read them; segments are reference counted and freed once every
// consumer has taken its share ("delete them to release memory after they
// have been consumed by all successor tasks"). When memory runs short —
// "only of the probability less than 1% in our production clusters" — the
// least recently used segments are swapped to disk in large chunks and
// transparently loaded back on access.
//
// The same structure backs both runtimes: the simulator stores sizes only,
// the real engine stores payload bytes.
type CacheWorker struct {
	capacity int64
	used     int64 // in-memory bytes (spilled segments excluded)
	lru      *list.List
	segs     map[string]*segment

	stats CacheStats
}

type segment struct {
	key     string
	size    int64
	data    [][]byte // optional payload (real engine)
	refs    int      // remaining consumers
	spilled bool
	elem    *list.Element
}

// CacheStats counts the memory-manager activity a run produced.
type CacheStats struct {
	Puts        int
	Gets        int
	Misses      int
	SpillEvents int
	SpillBytes  int64 // bytes swapped out to disk
	LoadBytes   int64 // spilled bytes loaded back on access
	Freed       int   // segments released after full consumption
	// Drops counts segments removed unconditionally by Drop (failure
	// recovery discarding a failed producer's partial output).
	Drops int
	// LostSpilledBytes is the portion of FailAll losses that lived on the
	// disk tier — the swap file dies with its owner — as opposed to in
	// memory, so recovery cost models can tell the tiers apart.
	LostSpilledBytes int64
	// DiskReads/DiskReadBytes count accesses served directly from the disk
	// tier without loading the segment back into memory (the over-capacity
	// case: a segment larger than the whole worker stays spilled).
	DiskReads     int
	DiskReadBytes int64
	PeakUsed      int64
	// UsedBytes is the worker's current in-memory footprint (a snapshot of
	// Used at Stats time, spilled segments excluded). It must return to
	// zero once every segment is dropped — the leak regression pinned by
	// the store accounting tests.
	UsedBytes int64
}

// NewCacheWorker returns a Cache Worker with the given memory capacity in
// bytes. A non-positive capacity means unbounded (never spills).
func NewCacheWorker(capacity int64) *CacheWorker {
	return &CacheWorker{
		capacity: capacity,
		lru:      list.New(),
		segs:     make(map[string]*segment),
	}
}

// Used returns the bytes currently held in memory.
func (w *CacheWorker) Used() int64 { return w.used }

// Stats returns a copy of the activity counters plus a snapshot of the
// current in-memory footprint.
func (w *CacheWorker) Stats() CacheStats {
	st := w.stats
	st.UsedBytes = w.used
	return st
}

// Len returns the number of resident segments (in memory or spilled).
func (w *CacheWorker) Len() int { return len(w.segs) }

// Put stores a shuffle segment that refs consumers will read. Payload may
// be nil when only accounting is needed. It returns the bytes spilled to
// make room, so the caller can charge disk time. Re-putting an existing
// key replaces the previous segment — failure recovery re-writes a
// relaunched producer's partition — and the replaced segment leaves the
// memory accounting before the new one enters, so repeated re-puts cannot
// leak `used` bytes.
func (w *CacheWorker) Put(key string, size int64, payload [][]byte, refs int) (spilled int64, err error) {
	if size < 0 {
		return 0, fmt.Errorf("shuffle: cache worker: negative size for %q", key)
	}
	if old, dup := w.segs[key]; dup {
		w.remove(old)
	}
	if refs <= 0 {
		refs = 1
	}
	s := &segment{key: key, size: size, data: payload, refs: refs}
	s.elem = w.lru.PushFront(s)
	w.segs[key] = s
	w.used += size
	w.stats.Puts++
	if w.used > w.stats.PeakUsed {
		w.stats.PeakUsed = w.used
	}
	return w.evictTo(w.capacity), nil
}

// evictTo spills LRU segments until used ≤ limit (no-op when unbounded).
func (w *CacheWorker) evictTo(limit int64) int64 {
	if w.capacity <= 0 {
		return 0
	}
	var spilled int64
	for w.used > limit {
		e := w.lru.Back()
		if e == nil {
			break
		}
		s := e.Value.(*segment)
		w.lru.Remove(e)
		s.elem = nil
		if !s.spilled {
			s.spilled = true
			w.used -= s.size
			spilled += s.size
			w.stats.SpillEvents++
			w.stats.SpillBytes += s.size
		}
	}
	return spilled
}

// Get reads one consumer's view of a segment without consuming it. It
// reports the payload, whether the segment was served from the disk tier
// (the caller charges a disk read), and whether the key exists at all.
// A spilled segment normally returns to memory; a segment larger than the
// worker's whole capacity is served from the disk tier in place instead —
// loading it would only make the trailing eviction re-spill it immediately,
// charging LoadBytes + SpillBytes on every access (the spill/load thrash
// this case used to cause).
func (w *CacheWorker) Get(key string) (payload [][]byte, wasSpilled, ok bool) {
	s, ok := w.segs[key]
	if !ok {
		w.stats.Misses++
		return nil, false, false
	}
	w.stats.Gets++
	wasSpilled = s.spilled
	if s.spilled && w.capacity > 0 && s.size > w.capacity {
		// Over-capacity segment: it can never be memory-resident, so serve
		// it from the disk tier without flapping residency.
		w.stats.DiskReads++
		w.stats.DiskReadBytes += s.size
		return s.data, true, true
	}
	if s.spilled {
		s.spilled = false
		w.used += s.size
		w.stats.LoadBytes += s.size
		if w.used > w.stats.PeakUsed {
			w.stats.PeakUsed = w.used
		}
	}
	if s.elem != nil {
		w.lru.MoveToFront(s.elem)
	} else {
		s.elem = w.lru.PushFront(s)
	}
	// Loading one segment back may push others out.
	w.evictTo(w.capacity)
	return s.data, wasSpilled, true
}

// Spilled reports whether the key's segment currently lives on the disk
// tier (false for missing keys).
func (w *CacheWorker) Spilled(key string) bool {
	s, ok := w.segs[key]
	return ok && s.spilled
}

// remove detaches a segment from the LRU list, the key map and the memory
// accounting (spilled segments hold no memory).
func (w *CacheWorker) remove(s *segment) {
	if s.elem != nil {
		w.lru.Remove(s.elem)
	}
	if !s.spilled {
		w.used -= s.size
	}
	delete(w.segs, s.key)
}

// Consume records that one consumer has finished with the segment; the
// segment is freed when all consumers have. It returns whether the key
// existed.
func (w *CacheWorker) Consume(key string) bool {
	s, ok := w.segs[key]
	if !ok {
		return false
	}
	s.refs--
	if s.refs > 0 {
		return true
	}
	w.remove(s)
	w.stats.Freed++
	return true
}

// Drop removes a segment unconditionally (failure recovery discards a
// failed producer's partial output). It reports whether the key existed.
func (w *CacheWorker) Drop(key string) bool {
	s, ok := w.segs[key]
	if !ok {
		return false
	}
	w.remove(s)
	w.stats.Drops++
	return true
}

// FailAll simulates the Cache Worker process dying: every resident
// segment — in memory or spilled, since the swap file dies with its owner
// — is lost at once. It returns the lost keys, sorted, so the caller can
// fan each one out to recovery (the controller's CacheWorkerLost /
// TaskOutputLost path), and leaves the worker empty but reusable, as a
// restarted process would be. Stats survive: the crash does not erase the
// history of what the worker did.
func (w *CacheWorker) FailAll() []string {
	keys := make([]string, 0, len(w.segs))
	var lostSpilled int64
	for k, s := range w.segs {
		keys = append(keys, k)
		if s.spilled {
			lostSpilled += s.size
		}
	}
	sort.Strings(keys)
	w.segs = make(map[string]*segment)
	w.lru.Init()
	w.used = 0
	w.stats.LostSpilledBytes += lostSpilled
	return keys
}
