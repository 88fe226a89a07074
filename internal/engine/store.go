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
// DropJob releases everything at job completion (the simulator's cost
// model covers the memory-pressure/LRU behaviour via shuffle.CacheWorker,
// which also backs this store).
type Store struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers []*shuffle.CacheWorker // per machine
	home    map[string]int         // segment key -> machine
	segs    map[string]*Batch      // segment payloads
	jobKeys map[string][]string
}

// NewStore creates a store with one Cache Worker per machine; capacity is
// the per-worker memory budget in bytes (0 = unbounded).
func NewStore(machines int, capacity int64) *Store {
	s := &Store{
		home:    make(map[string]int),
		segs:    make(map[string]*Batch),
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
	if b == nil {
		b = &Batch{}
	}
	size := int64(EncodedBatchSize(b)) // exact wire bytes, computed outside the lock
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.home[key]; ok {
		s.workers[old].Drop(key)
	} else {
		s.jobKeys[job] = append(s.jobKeys[job], key)
	}
	w := s.workers[machine%len(s.workers)]
	// The Cache Worker tracks memory accounting and spill behaviour; the
	// payload rides in the segment side table.
	if _, err := w.Put(key, size, nil, 1<<30); err != nil {
		return err
	}
	s.home[key] = machine % len(s.workers)
	s.segs[key] = b
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
		if b, exists := s.segs[key]; exists {
			if m, ok2 := s.home[key]; ok2 {
				s.workers[m].Get(key) // touch LRU / reload accounting
			}
			return b, true
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
		if m, ok := s.home[key]; ok {
			s.workers[m].Drop(key)
			delete(s.home, key)
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
		out.SpillEvents += st.SpillEvents
		out.SpillBytes += st.SpillBytes
		out.LoadBytes += st.LoadBytes
		out.Freed += st.Freed
		out.UsedBytes += st.UsedBytes
	}
	return out
}
