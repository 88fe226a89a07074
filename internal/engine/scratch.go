package engine

import "sync"

// scratch is one kernel call's throw-away working memory: the hash
// vectors, table slots and index vectors a kernel reads while it runs and
// drops when it returns. A kernel takes one with getScratch on entry and
// hands it back with put on exit, so a warm kernel allocates what it
// returns and little else. The rules that make the reuse safe:
//
//   - every slice is pointer-free, so a pooled scratch costs the collector
//     no scan;
//   - a kernel writes or clears every element it reads in the same call
//     (the vectors come back holding a previous call's values);
//   - nothing a kernel returns aliases scratch — a result that keeps an
//     index vector copies it out first (FilterBatch) or gathers through it
//     (the join, the aggregate, the sort).
//
// A kernel that panics loses its scratch to the collector, which is
// harmless. Nested kernels (the aggregate's closing sort) take a second
// one.
type scratch struct {
	u64 [2][]uint64
	i32 [4][]int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func (s *scratch) put() { scratchPool.Put(s) }

// uint64s returns scratch uint64 vector k with n elements of undefined
// value.
func (s *scratch) uint64s(k, n int) []uint64 { return sized(&s.u64[k], n) }

// int32s returns scratch int32 vector k with n elements of undefined value.
func (s *scratch) int32s(k, n int) []int32 { return sized(&s.i32[k], n) }

// sized reslices *buf to n elements, replacing it with a larger vector when
// its capacity falls short.
func sized[T uint64 | int32](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}
