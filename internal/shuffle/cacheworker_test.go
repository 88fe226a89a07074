package shuffle

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheWorkerPutGetConsume(t *testing.T) {
	w := NewCacheWorker(0) // unbounded
	payload := [][]byte{[]byte("hello")}
	if used, err := w.Put("a", 5, payload, 2); err != nil || used != 5 || w.Len() != 1 {
		t.Fatalf("Put = %d, %v; len=%d", used, err, w.Len())
	}
	got, ok := w.Get("a")
	if !ok || string(got[0]) != "hello" {
		t.Errorf("Get = %v %v", got, ok)
	}
	if !w.Consume("a") {
		t.Error("first consume failed")
	}
	if w.Len() != 1 {
		t.Error("segment freed before all consumers done")
	}
	if !w.Consume("a") {
		t.Error("second consume failed")
	}
	if used := w.Stats().UsedBytes; w.Len() != 0 || used != 0 {
		t.Errorf("segment not freed: len=%d used=%d", w.Len(), used)
	}
	if w.Consume("a") {
		t.Error("consume of missing key succeeded")
	}
	if w.Stats().Freed != 1 {
		t.Errorf("freed = %d", w.Stats().Freed)
	}
}

func TestCacheWorkerDuplicateAndErrors(t *testing.T) {
	w := NewCacheWorker(0)
	if _, err := w.Put("a", 10, nil, 1); err != nil {
		t.Fatal(err)
	}
	// A re-put replaces the previous attempt's segment (failure recovery
	// re-writes a partition) without leaking the old bytes from `used`.
	used, err := w.Put("a", 30, nil, 1)
	if err != nil {
		t.Fatalf("re-put rejected: %v", err)
	}
	if used != 30 || w.Len() != 1 {
		t.Errorf("after replace: used=%d len=%d, want 30/1", used, w.Len())
	}
	if _, err := w.Put("b", -1, nil, 1); err == nil {
		t.Error("negative size accepted")
	}
	if _, ok := w.Get("missing"); ok {
		t.Error("missing key found")
	}
	if w.Stats().Misses != 1 {
		t.Errorf("misses = %d", w.Stats().Misses)
	}
}

func TestCacheWorkerDrop(t *testing.T) {
	w := NewCacheWorker(0)
	w.Put("x", 7, nil, 3)
	if !w.Drop("x") {
		t.Error("drop failed")
	}
	if w.Drop("x") {
		t.Error("double drop succeeded")
	}
	if w.Stats().UsedBytes != 0 || w.Len() != 0 {
		t.Error("drop leaked")
	}
}

func TestCacheWorkerZeroRefsDefaultsToOne(t *testing.T) {
	w := NewCacheWorker(0)
	w.Put("x", 1, nil, 0)
	if !w.Consume("x") || w.Len() != 0 {
		t.Error("refs<=0 should behave as 1")
	}
}

// TestCacheWorkerDropStats pins the Drop counter gap: recovery-discarded
// segments must be visible in CacheStats.
func TestCacheWorkerDropStats(t *testing.T) {
	w := NewCacheWorker(0)
	w.Put("x", 7, nil, 3)
	w.Put("y", 9, nil, 1)
	if !w.Drop("x") || !w.Drop("y") {
		t.Fatal("drops failed")
	}
	w.Drop("x") // missing: must not count
	if st := w.Stats(); st.Drops != 2 {
		t.Errorf("Drops = %d, want 2", st.Drops)
	}
}

// TestCacheWorkerAccountingInvariant drives seeded random op sequences
// (Put/Get/Consume/Drop, with re-puts of live keys) and asserts after every
// step that UsedBytes equals the sum of the resident segments' sizes.
func TestCacheWorkerAccountingInvariant(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := NewCacheWorker(0)
		var keys []string
		for step := 0; step < 400; step++ {
			op := "put"
			switch r.Intn(9) {
			case 0, 1, 2:
				k := fmt.Sprintf("s%d", r.Intn(step+1)) // sometimes a re-put
				if _, err := w.Put(k, int64(r.Intn(100)), nil, 1+r.Intn(3)); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, k)
			case 3, 4, 5:
				op = "get"
				if len(keys) > 0 {
					w.Get(keys[r.Intn(len(keys))])
				}
			case 6, 7:
				op = "consume"
				if len(keys) > 0 {
					w.Consume(keys[r.Intn(len(keys))])
				}
			case 8:
				op = "drop"
				if len(keys) > 0 {
					w.Drop(keys[r.Intn(len(keys))])
				}
			}
			var want int64
			for _, s := range w.segs {
				want += s.size
			}
			if used := w.Stats().UsedBytes; used != want {
				t.Fatalf("seed %d step %d after %s: UsedBytes=%d, resident sum=%d", seed, step, op, used, want)
			}
		}
	}
}

// TestCacheWorkerProperty: under random Put/Get/Consume/Drop, the worker
// holds exactly the keys a model with the same reference counts holds, and
// UsedBytes is the sum of their sizes.
func TestCacheWorkerProperty(t *testing.T) {
	type seg struct {
		size int64
		refs int
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := NewCacheWorker(0)
		live := make(map[string]seg)
		next := 0
		for i := 0; i < 200; i++ {
			switch r.Intn(4) {
			case 0:
				k := fmt.Sprintf("s%d", next)
				next++
				s := seg{int64(r.Intn(60)), 1 + r.Intn(3)}
				if _, err := w.Put(k, s.size, nil, s.refs); err != nil {
					return false
				}
				live[k] = s
			case 1:
				for k := range live {
					if _, ok := w.Get(k); !ok {
						return false
					}
					break
				}
			case 2:
				for k, s := range live {
					if !w.Consume(k) {
						return false
					}
					if s.refs--; s.refs == 0 {
						delete(live, k)
					} else {
						live[k] = s
					}
					break
				}
			case 3:
				for k := range live {
					if !w.Drop(k) {
						return false
					}
					delete(live, k)
					break
				}
			}
			var want int64
			for _, s := range live {
				want += s.size
			}
			if w.Stats().UsedBytes != want || w.Len() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
