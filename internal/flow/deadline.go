package flow

import (
	"swift/internal/core"
	"swift/internal/sim"
)

// Completion is one task attempt's finish report, the unit
// Service.TasksFinished consumes. It names the task the way the start
// action does inside the process — the job's handle, the stage's
// topological index, the task's index — so it holds no string and a
// completion resolves without hashing a name (core.Controller.FinishTask).
type Completion struct {
	Job     core.JobHandle
	Stage   int32
	Index   int32
	Attempt int32
}

// CompletionOf is the finish report of the attempt a start action
// launched.
func CompletionOf(a *core.Action) Completion {
	return Completion{Job: a.Job, Stage: a.Stage, Index: int32(a.Task.Index), Attempt: a.Attempt}
}

// DeadlineHeap holds the completions of running tasks ordered by the time
// they fall due. Like the rest of the package it owns no clock: callers
// push an absolute deadline and pop against a time they read themselves
// (swiftd: one driver goroutine and one timer, in wall micros), so the
// same heap replays deterministically under a fake clock. Completions with
// equal deadlines pop in push order. The zero value is an empty heap; it
// is not safe for concurrent use.
type DeadlineHeap struct {
	items []dueItem // binary min-heap ordered by dueItem.before
	seq   uint64
}

type dueItem struct {
	at  sim.Time
	seq uint64 // tie-break: FIFO among equal deadlines
	c   Completion
}

// before is the heap's total order; seq is unique, so the pop order does
// not depend on the heap's shape.
func (a *dueItem) before(b *dueItem) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Next returns the earliest deadline in the heap.
func (h *DeadlineHeap) Next() (at sim.Time, ok bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	return h.items[0].at, true
}

// Push schedules c to fall due at the absolute time at.
func (h *DeadlineHeap) Push(at sim.Time, c Completion) {
	h.seq++
	it := dueItem{at: at, seq: h.seq, c: c}
	// Sift up: shift later parents down into the hole, then drop it in.
	s := append(h.items, it)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = it
	h.items = s
}

// PopDue removes the completions whose deadline is at or before now, in
// (deadline, push) order, into buf and returns how many it wrote. len(buf)
// is the per-call bound: a caller that feeds each batch to the service
// under its lock thereby bounds how long that lock is held, and whatever
// else is due stays for the next call.
func (h *DeadlineHeap) PopDue(now sim.Time, buf []Completion) int {
	n := 0
	for n < len(buf) && len(h.items) > 0 && h.items[0].at <= now {
		buf[n] = h.pop()
		n++
	}
	return n
}

// pop removes the earliest completion.
func (h *DeadlineHeap) pop() Completion {
	s := h.items
	top := s[0].c
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	// Sift down: pull the earlier child up into the hole until last fits.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s[r].before(&s[child]) {
			child = r
		}
		if !s[child].before(&last) {
			break
		}
		s[i] = s[child]
		i = child
	}
	if n > 0 {
		s[i] = last
	}
	h.items = s
	return top
}
