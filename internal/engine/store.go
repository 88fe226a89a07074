package engine

import (
	"strconv"
	"sync"

	"swift/internal/shuffle"
)

// Store is the engine's in-memory shuffle fabric: one Cache Worker per
// machine holding real segment payloads, with blocking reads so a consumer
// task launched before its producer (gang scheduling within a graphlet)
// simply waits for the segment to appear — the pipeline-edge behaviour of
// Section III-B ("after the destination Cache Worker receives the desired
// shuffle data, the reader tasks are notified").
//
// Every segment payload is one Batch, kept exactly as the producer emitted
// it — a partition is usually a selection view over the producer's columns
// — so a shuffle write copies nothing. Byte accounting uses the column
// codec's exact encoded size (EncodedBatchSize, which sizes a view as its
// dense encoding) — the same number a wire transfer would pay — not a
// per-row estimate.
//
// Ownership: a stored view pins the batch it selects from until DropJob,
// and a plan must not mutate a batch after emitting it.
//
// Segments are retained until the whole job completes rather than being
// freed at first consumption, so fine-grained recovery can re-read them;
// DropJob releases everything at job completion.
type Store struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers []*shuffle.CacheWorker // per machine; they account the bytes
	segs    map[string]storedSeg
	jobKeys map[string][]string
}

// storedSeg is one segment's payload and the machine whose Cache Worker
// accounts it.
type storedSeg struct {
	b    *Batch
	home int
}

// NewStore creates a store with one unbounded Cache Worker per machine.
// capacity must be 0, as for shuffle.NewCacheWorker; any other value
// panics.
func NewStore(machines int, capacity int64) *Store {
	s := &Store{
		segs:    make(map[string]storedSeg),
		jobKeys: make(map[string][]string),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < machines; i++ {
		s.workers = append(s.workers, shuffle.NewCacheWorker(capacity))
	}
	return s
}

// SegmentKey names one shuffle partition: the batch produced by task
// `producer` of edge from->to destined for consumer task `part`. Built by
// appending rather than fmt — every shuffle read and write forms one.
func SegmentKey(job, from, to string, producer, part int) string {
	b := make([]byte, 0, len(job)+len(from)+len(to)+24)
	b = append(b, job...)
	b = append(b, '|')
	b = append(b, from...)
	b = append(b, '>')
	b = append(b, to...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(producer), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(part), 10)
	return string(b)
}

// PutBatch stores a segment (nil is an empty one) as given, replacing any
// previous attempt's (failure recovery re-writes). The Cache Worker
// accounts the batch's exact encoded size.
func (s *Store) PutBatch(job string, machine int, key string, b *Batch) error {
	return s.put(job, machine, key, b, nil)
}

// put is PutBatch for a task attempt: it refuses the write with ErrInjected
// once aborted reports true, checked under the store's lock. The engine loop
// closes an attempt's abort channel before it drops the attempt's job, so a
// write either lands before DropJob and goes with the job, or is refused —
// an aborted attempt's late write neither outlives its job nor replaces its
// retry's segment.
func (s *Store) put(job string, machine int, key string, b *Batch, aborted func() bool) error {
	if b == nil {
		b = &Batch{}
	}
	size := int64(EncodedBatchSize(b)) // exact wire bytes, computed outside the lock
	s.mu.Lock()
	defer s.mu.Unlock()
	if aborted != nil && aborted() {
		return ErrInjected
	}
	if old, ok := s.segs[key]; ok {
		s.workers[old.home].Drop(key)
	} else {
		s.jobKeys[job] = append(s.jobKeys[job], key)
	}
	// The Cache Worker accounts the bytes; the payload rides in segs.
	// DropJob frees the segment, so the worker's reference count is unused.
	home := machine % len(s.workers)
	if _, err := s.workers[home].Put(key, size, nil, 1); err != nil {
		return err
	}
	s.segs[key] = storedSeg{b: b, home: home}
	s.cond.Broadcast()
	return nil
}

// GetBatch blocks until the segment exists, then returns it as it was put,
// possibly a selection view (shared; callers must not mutate it). It
// returns false if aborted reported true while waiting.
func (s *Store) GetBatch(key string, aborted func() bool) (*Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if seg, exists := s.segs[key]; exists {
			s.workers[seg.home].Get(key)
			return seg.b, true
		}
		if aborted != nil && aborted() {
			return nil, false
		}
		s.cond.Wait()
	}
}

// Wake re-checks all blocked readers (used by task aborts).
func (s *Store) Wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// DropJob releases every segment of a job.
func (s *Store) DropJob(job string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, key := range s.jobKeys[job] {
		if seg, ok := s.segs[key]; ok {
			s.workers[seg.home].Drop(key)
			delete(s.segs, key)
		}
	}
	delete(s.jobKeys, job)
}

// Stats aggregates Cache Worker statistics across machines.
func (s *Store) Stats() shuffle.CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out shuffle.CacheStats
	for _, w := range s.workers {
		st := w.Stats()
		out.Puts += st.Puts
		out.Gets += st.Gets
		out.Misses += st.Misses
		out.Freed += st.Freed
		out.UsedBytes += st.UsedBytes
	}
	return out
}
