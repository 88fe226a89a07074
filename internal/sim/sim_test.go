package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	for _, c := range []struct {
		s    float64
		want Duration
	}{
		{1.5, 1500000},
		{-2, 0},
		{math.NaN(), 0},
		{math.Inf(-1), 0},
		{9.2e12, MaxDuration}, // above MaxInt64 µs, where a plain conversion wraps
		{1e13, MaxDuration},
		{1e300, MaxDuration}, // a trace's "proc_sec":1e300
		{math.Inf(1), MaxDuration},
		{MaxDuration.Seconds(), MaxDuration},
		{1e12, 1e18}, // below the bound: exact
	} {
		if got := FromSeconds(c.s); got != c.want {
			t.Errorf("FromSeconds(%g) = %d, want %d", c.s, got, c.want)
		}
	}
	const _ = 4 * MaxDuration // an instant below MaxDuration plus three durations: a constant overflow fails the build
	if got := Time(2500000).Seconds(); got != 2.5 {
		t.Errorf("Seconds() = %g", got)
	}
	if got := Time(1500000).String(); got != "1.500000s" {
		t.Errorf("String() = %q", got)
	}
}

func TestRunOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.At(10, func() { order = append(order, 11) }) // same time: FIFO
	end := e.Run()
	if end != 30 {
		t.Errorf("end time = %d", end)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(5, func() {
		fired = append(fired, e.Now())
		e.After(10, func() { fired = append(fired, e.Now()) })
		e.After(0, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 3 || fired[0] != 5 || fired[1] != 5 || fired[2] != 15 {
		t.Errorf("fired = %v", fired)
	}
}

func TestPastEventsRunNow(t *testing.T) {
	e := NewEngine(1)
	var at Time = -1
	e.At(100, func() {
		e.At(50, func() { at = e.Now() }) // in the past
	})
	e.Run()
	if at != 100 {
		t.Errorf("past event ran at %d, want 100", at)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	for _, tm := range []Time{10, 20, 30, 40} {
		e.At(tm, func() { ran++ })
	}
	e.RunUntil(25)
	if ran != 2 || e.Now() != 25 || e.Pending() != 2 {
		t.Errorf("ran=%d now=%d pending=%d", ran, e.Now(), e.Pending())
	}
	e.Run()
	if ran != 4 || e.Now() != 40 {
		t.Errorf("after Run: ran=%d now=%d", ran, e.Now())
	}
	// RunUntil past the last event advances the clock.
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("clock = %d, want 100", e.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := NewEngine(42)
		var vals []float64
		for i := 0; i < 50; i++ {
			e.At(Time(i%7)*100, func() { vals = append(vals, e.Rand().Float64()) })
		}
		e.Run()
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different runs")
		}
	}
	if got := NewEngine(42).Steps(); got != 0 {
		t.Errorf("fresh engine steps = %d", got)
	}
}

// TestEventOrderProperty: for random schedules, callbacks observe a
// monotonically non-decreasing clock and every event runs exactly once.
func TestEventOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		n := 1 + r.Intn(300)
		ran := 0
		last := Time(-1)
		okOrder := true
		for i := 0; i < n; i++ {
			e.At(Time(r.Intn(1000)), func() {
				if e.Now() < last {
					okOrder = false
				}
				last = e.Now()
				ran++
			})
		}
		e.Run()
		return okOrder && ran == n && e.Steps() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
