// Package det seeds determinism violations and their sanctioned
// counterparts for the golden tests.
package det

import (
	"math/rand"
	randv2 "math/rand/v2"
	"slices"
	"sort"
	"time"
)

func clock() time.Time {
	return time.Now() // want determinism "reads the wall clock"
}

func draw() int {
	return rand.Intn(6) // want determinism "uses the global rand source"
}

// math/rand/v2's global functions are forbidden too, not only the ones
// named like math/rand's.
func drawV2() int32 {
	return randv2.Int32N(6) // want determinism "uses the global rand source"
}

// a seeded generator built by a New* constructor is the sanctioned idiom.
func newSeeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// seeded draws are the sanctioned idiom: only the process-global source is
// forbidden.
func seeded(rng *rand.Rand) int {
	return rng.Intn(6)
}

func emit(m map[string]int, ch chan int) {
	for _, v := range m {
		ch <- v // want determinism "channel send inside map iteration"
	}
}

func collectUnsorted(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v) // want determinism "append to out inside map iteration"
	}
	return out
}

// collectSorted is the sanctioned collect-then-sort shape.
func collectSorted(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// collectHelperSorted sorts through a local helper whose name says so.
func collectHelperSorted(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	sortInts(out)
	return out
}

func sortInts(xs []int) { sort.Ints(xs) }

// collectContains only searches the slice after the loop: slices.Contains
// is not a sort, so the map order still leaks.
func collectContains(m map[string]int) ([]int, bool) {
	var out []int
	for _, v := range m {
		out = append(out, v) // want determinism "append to out inside map iteration"
	}
	return out, slices.Contains(out, 3)
}

// collectHelperUnsorted hands the slice to a helper whose name contains
// "sort" without starting with it: not a sort either.
func collectHelperUnsorted(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v) // want determinism "append to out inside map iteration"
	}
	return unsorted(out)
}

func unsorted(xs []int) []int { return xs }

// perIteration appends to a slice scoped inside the loop: harmless.
func perIteration(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// chanCollect drains a worker pool in completion order: the slice bakes in
// goroutine scheduling.
func chanCollect(ch chan int) []int {
	var out []int
	for v := range ch {
		out = append(out, v) // want determinism "leaks goroutine completion order"
	}
	return out
}

// chanCollectSorted is the sanctioned collect-then-sort shape for channels.
func chanCollectSorted(ch chan int) []int {
	var out []int
	for v := range ch {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// chanMergeIndexed is the worker-pool merge idiom: each result carries its
// input slot, so the merged slice is independent of completion order.
func chanMergeIndexed(ch chan struct{ I, V int }, n int) []int {
	res := make([]int, n)
	for s := range ch {
		res[s.I] = s.V
	}
	return res
}

// chanPerIteration appends to a slice scoped inside the loop: harmless.
func chanPerIteration(ch chan int) int {
	n := 0
	for v := range ch {
		var local []int
		local = append(local, v)
		n += len(local)
	}
	return n
}

func pickAny(m map[string]int) int {
	var won int
	for _, v := range m { // want determinism "selects an arbitrary element"
		won = v
		break
	}
	return won
}

// The three functions below carry //lint:allow comments. swiftvet reads
// no comment as a suppression, so every finding under them surfaces.

func suppressed() time.Time {
	//lint:allow determinism fixture: a reasoned allow comment
	return time.Now() // want determinism "reads the wall clock"
}

func bareAllow() time.Time {
	//lint:allow determinism
	return time.Now() // want determinism "reads the wall clock"
}

func multiLineAllowed(base time.Time) []time.Duration {
	//lint:allow determinism fixture: an allow on a multi-line statement's first line
	out := []time.Duration{
		time.Since(base),        // want determinism "reads the wall clock"
		time.Since(base.Add(1)), // want determinism "reads the wall clock"
	}
	return out
}
