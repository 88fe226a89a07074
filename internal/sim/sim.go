// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock in integer microseconds, an event heap with stable
// ordering, and a seeded random source. Every large-scale experiment in the
// repository (the paper's 100- and 2,000-node clusters, up to 140,000
// executors) runs on this kernel; identical seeds reproduce identical
// schedules bit for bit.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Time is a simulated instant in microseconds since the start of the run.
type Time int64

// Duration is a simulated interval in microseconds.
type Duration = Time

// Microsecond, Millisecond and Second are Duration units.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000
	Second      Duration = 1000000
)

// Seconds converts a Time or Duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// MaxDuration is the longest Duration FromSeconds returns, about 73,000
// years: an instant below it plus three such durations still fits an int64.
const MaxDuration Duration = math.MaxInt64 / 4

// FromSeconds converts floating-point seconds to a Duration, rounding to
// the nearest microsecond. Negative inputs (cost models' subtractions leave
// tiny ones) and NaN floor at zero; MaxDuration or more, +Inf too, saturates.
func FromSeconds(s float64) Duration {
	switch {
	case !(s > 0):
		return 0
	case s >= MaxDuration.Seconds():
		return MaxDuration
	}
	return Duration(s*float64(Second) + 0.5)
}

// String renders the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Handler is what an event runs. Fire receives the seq the event was
// scheduled under (Schedule's result), so a long-lived handler that is
// re-armed or recycled can tell its latest arm from a stale one still
// queued and ignore the stale one.
type Handler interface{ Fire(seq int64) }

// Func adapts a plain callback to a Handler. A func value is one pointer,
// so the conversion to the interface allocates nothing.
type Func func()

// Fire runs f.
func (f Func) Fire(int64) { f() }

// event is one queued handler. Events live by value in the engine's heap:
// no per-event allocation beyond the caller's handler, and nothing for the
// collector to trace but h.
type event struct {
	at  Time
	seq int64 // tie-break: FIFO among same-time events
	h   Handler
}

// before is the queue's total order: time, then insertion. seq is unique,
// so no two events compare equal and the pop order is independent of the
// heap's shape — any correct heap replays a seed bit for bit.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// heapArity is the fan-out of the event heap. Four children per node halve
// the depth of a binary heap (a push into 120k pending events moves up at
// most 9 levels) and keep a node's children in one or two cache lines.
const heapArity = 4

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all scheduling happens from event callbacks or before Run.
type Engine struct {
	now    Time
	seq    int64
	events []event // heapArity-ary min-heap ordered by event.before
	rng    *rand.Rand
	steps  int64
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() int64 { return e.steps }

// At schedules fn to run at the given absolute time. Times in the past run
// at the current instant (ordered after already-queued current events).
func (e *Engine) At(t Time, fn func()) { e.Schedule(t, Func(fn)) }

// After schedules fn to run d from now (negative d means now).
func (e *Engine) After(d Duration, fn func()) { e.Schedule(e.now+d, Func(fn)) }

// Schedule queues h to fire at t (clamped to now, like At) and returns the
// event's seq, which h.Fire receives: unique, and increasing in the order
// events are scheduled.
func (e *Engine) Schedule(t Time, h Handler) int64 {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := event{at: t, seq: e.seq, h: h}
	// Sift up: shift later parents down into the hole, then drop ev in.
	q := append(e.events, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	e.events = q
	return ev.seq
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time {
	for len(e.events) > 0 {
		e.step()
	}
	return e.now
}

// RunUntil executes events with time ≤ limit; remaining events stay queued.
// The clock is advanced to limit even if the queue drained earlier.
func (e *Engine) RunUntil(limit Time) Time {
	for len(e.events) > 0 && e.events[0].at <= limit {
		e.step()
	}
	if e.now < limit {
		e.now = limit
	}
	return e.now
}

// RunBounded executes events with time ≤ limit, additionally stopping after
// maxSteps events — the guard the chaos soak uses to turn a livelocked
// recovery loop into a detectable violation instead of a hung test. It
// returns the final time and whether the queue drained of events at or
// before the limit (false means the step budget ran out first).
func (e *Engine) RunBounded(limit Time, maxSteps int64) (Time, bool) {
	start := e.steps
	for len(e.events) > 0 && e.events[0].at <= limit {
		if e.steps-start >= maxSteps {
			return e.now, false
		}
		e.step()
	}
	if e.now < limit {
		e.now = limit
	}
	return e.now, true
}

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.events) }

// step pops the earliest event and runs it.
func (e *Engine) step() {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the handler
	h = h[:n]
	// Sift down: pull the earliest child up into the hole until last fits.
	i := 0
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		best := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(&h[best]) {
				best = c
			}
		}
		if !h[best].before(&last) {
			break
		}
		h[i] = h[best]
		i = best
	}
	if n > 0 {
		h[i] = last
	}
	e.events = h
	e.now = top.at
	e.steps++
	top.h.Fire(top.seq)
}
