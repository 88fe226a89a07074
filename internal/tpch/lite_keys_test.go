package tpch

import (
	"cmp"
	"math"
	"strings"
	"testing"
)

// TestDateKeyOrdersAsString: every date GenerateLite can draw, and every
// bound the benchmark passes, compares with every other as its packed key
// does, so a plan's integer predicate keeps exactly the rows the
// references' string predicate keeps.
func TestDateKeyOrdersAsString(t *testing.T) {
	// The date arguments bench/tpch.go passes the plans.
	benchBounds := []string{"1998-09-02", "1994-01-01", "1995-01-01", "1995-03-15"}
	all := make([]string, 0, len(dates)+len(benchBounds))
	for _, d := range dates {
		all = append(all, d.(string))
	}
	all = append(all, benchBounds...)
	keys := make([]uint64, len(all))
	for i, d := range all {
		keys[i] = mustDateKey(d)
		if keys[i] != dateKey(d) {
			t.Fatalf("mustDateKey(%q) = %#x, dateKey = %#x", d, keys[i], dateKey(d))
		}
	}
	for i, a := range all {
		for j, b := range all {
			if got, want := cmp.Compare(keys[i], keys[j]), strings.Compare(a, b); got != want {
				t.Fatalf("%q vs %q: keys compare %d, strings %d", a, b, got, want)
			}
		}
	}
}

// TestLiteConstructorsRejectMalformedDates: a date argument that is not
// YYYY-MM-DD panics when the plan is built, as MustCol does on an unknown
// column, instead of packing into a key that orders wrongly.
func TestLiteConstructorsRejectMalformedDates(t *testing.T) {
	const good = "1994-01-01"
	for _, bad := range []string{"", "1994-1-01", "1994/01/01", "1994-01-01 ", "19940101", "1994-0a-01", "１９９４-01-01"} {
		for name, build := range map[string]func(){
			"LiteQ1":     func() { LiteQ1(2, 2, bad) },
			"LiteQ6 lo":  func() { LiteQ6(2, bad, good) },
			"LiteQ6 hi":  func() { LiteQ6(2, good, bad) },
			"LiteQ3":     func() { LiteQ3(2, 2, 10, "BUILDING", bad) },
			"LiteQ12 lo": func() { LiteQ12(2, 2, bad, good, 1) },
			"LiteQ12 hi": func() { LiteQ12(2, 2, good, bad, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%q) did not panic", name, bad)
					}
				}()
				build()
			}()
		}
	}
}

// TestKeySetProbes: a key the set was built from is present, and a probe
// outside 0..max — or a negative key among the build keys, which has can
// never report — neither panics nor reports present.
func TestKeySetProbes(t *testing.T) {
	s := newKeySet([]int64{-1, 0, 5, 63, 64, 130, -64, math.MinInt64})
	for _, k := range []int64{0, 5, 63, 64, 130} {
		if !s.has(k) {
			t.Errorf("has(%d) = false for a build key", k)
		}
	}
	for _, k := range []int64{-1, -64, math.MinInt64, 1, 62, 65, 129, 131, 191, 192, 1 << 40, math.MaxInt64} {
		if s.has(k) {
			t.Errorf("has(%d) = true for a key not built", k)
		}
	}
	if empty := newKeySet([]int64{-3}); empty.has(-3) || empty.has(0) {
		t.Error("a set built from one negative key reports a member")
	}
}
