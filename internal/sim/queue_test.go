package sim

import (
	"math/rand"
	"sort"
	"testing"

	"swift/internal/raceflag"
)

// oracleEvent is one scheduled callback as the oracle sees it: the clamped
// time it was scheduled for and its global insertion rank.
type oracleEvent struct {
	at  Time
	ins int
}

// TestQueueMatchesStableSortOracle drives random interleavings of At,
// After, RunUntil and RunBounded — with same-instant events, times in the
// past, and events scheduled from inside callbacks — and checks the
// execution order against the definition of the queue: a stable sort on
// (clamped time, insertion order). Every prefix the engine has executed
// must be the oracle's prefix; what it has not must still be pending.
func TestQueueMatchesStableSortOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		var scheduled []oracleEvent // every event ever scheduled, by insertion
		var ran []int               // insertion ranks in execution order
		var ranAt []Time

		var schedule func(depth int)
		schedule = func(depth int) {
			ins := len(scheduled)
			fn := func() {
				ran = append(ran, ins)
				ranAt = append(ranAt, e.Now())
				if depth < 3 {
					for k := r.Intn(3); k > 0; k-- {
						schedule(depth + 1)
					}
				}
			}
			var at Time
			switch r.Intn(4) {
			case 0: // same instant as now: FIFO behind what is queued
				at = e.Now()
				e.After(0, fn)
			case 1: // the past: clamps to now
				at = e.Now()
				e.At(e.Now()-Time(1+r.Intn(50)), fn)
			case 2: // a small set of instants, so ties are common
				at = e.Now() + Time(r.Intn(4))*10
				e.At(at, fn)
			default:
				d := Duration(r.Intn(200))
				at = e.Now() + d
				e.After(d, fn)
			}
			scheduled = append(scheduled, oracleEvent{at: at, ins: ins})
		}

		for op := 0; op < 60; op++ {
			switch r.Intn(5) {
			case 0, 1, 2:
				schedule(0)
			case 3:
				e.RunUntil(e.Now() + Time(r.Intn(120)))
			case 4:
				e.RunBounded(e.Now()+Time(r.Intn(120)), int64(1+r.Intn(6)))
			}
			checkAgainstOracle(t, seed, e, scheduled, ran, ranAt)
		}
		e.Run()
		checkAgainstOracle(t, seed, e, scheduled, ran, ranAt)
		if len(ran) != len(scheduled) || e.Pending() != 0 {
			t.Fatalf("seed %d: %d of %d events ran, %d pending after Run", seed, len(ran), len(scheduled), e.Pending())
		}
	}
}

func checkAgainstOracle(t *testing.T, seed int64, e *Engine, scheduled []oracleEvent, ran []int, ranAt []Time) {
	t.Helper()
	want := append([]oracleEvent(nil), scheduled...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(ran)+e.Pending() != len(scheduled) {
		t.Fatalf("seed %d: ran %d + pending %d != scheduled %d", seed, len(ran), e.Pending(), len(scheduled))
	}
	for i, ins := range ran {
		if want[i].ins != ins {
			t.Fatalf("seed %d: execution #%d was insertion %d, stable-sort oracle says %d", seed, i, ins, want[i].ins)
		}
		if ranAt[i] != want[i].at {
			t.Fatalf("seed %d: insertion %d ran at %d, scheduled (clamped) for %d", seed, ins, ranAt[i], want[i].at)
		}
	}
}

// TestQueueAllocs pins the queue's allocation cost: pushing and popping an
// event allocates nothing of its own — the caller's closure is the only
// allocation an event ever needs, and a shared one, or a pointer Handler
// re-armed with Schedule, costs nothing.
func TestQueueAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 4096; i++ {
		e.At(Time(i), fn)
	}
	at := Time(4096)
	allocs := testing.AllocsPerRun(1000, func() {
		e.At(at, fn)
		at++
		e.step()
	})
	if allocs != 0 {
		t.Errorf("At+step with a shared callback: %.1f allocs/event, want 0", allocs)
	}
	h := &countingHandler{}
	allocs = testing.AllocsPerRun(1000, func() {
		h.armed = e.Schedule(at, h)
		at++
		e.step()
	})
	if allocs != 0 {
		t.Errorf("Schedule+step with a pointer handler: %.1f allocs/event, want 0", allocs)
	}
	n := 0
	allocs = testing.AllocsPerRun(1000, func() {
		e.At(at, func() { n++ })
		at++
		e.step()
	})
	if allocs > 1 {
		t.Errorf("At+step with a fresh closure: %.1f allocs/event, want ≤ 1 (the closure)", allocs)
	}
}

// countingHandler counts the fires that carry its latest arm's seq.
type countingHandler struct {
	armed int64
	fired int
}

func (h *countingHandler) Fire(seq int64) {
	if seq == h.armed {
		h.fired++
	}
}

// A handler armed twice before its first event fires sees both events, and
// the seq tells the stale one apart: only the latest arm counts.
func TestScheduleSeqSupersedesStaleArm(t *testing.T) {
	e := NewEngine(1)
	h := &countingHandler{}
	first := e.Schedule(10, h)
	h.armed = e.Schedule(20, h)
	if h.armed <= first {
		t.Fatalf("seq %d of the second arm is not above the first's %d", h.armed, first)
	}
	e.RunUntil(15)
	if h.fired != 0 {
		t.Fatalf("the stale arm at t=10 counted as a fire")
	}
	e.Run()
	if h.fired != 1 || e.Now() != 20 {
		t.Fatalf("fired %d times, clock %d; want once at 20", h.fired, e.Now())
	}
}

// benchPushPop measures one push and one pop at a steady queue depth, the
// shape of bench's sim probe: every executed event schedules one more.
func benchPushPop(b *testing.B, depth int) {
	e := NewEngine(1)
	r := e.Rand()
	fn := func() {}
	for i := 0; i < depth; i++ {
		e.At(Time(r.Intn(depth)), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Duration(1+r.Intn(depth)), fn)
		e.step()
	}
}

func BenchmarkPushPop4k(b *testing.B)   { benchPushPop(b, 4096) }
func BenchmarkPushPop120k(b *testing.B) { benchPushPop(b, 120000) }
