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
	if _, err := w.Put("a", 5, payload, 2); err != nil {
		t.Fatal(err)
	}
	if w.Used() != 5 || w.Len() != 1 {
		t.Errorf("used=%d len=%d", w.Used(), w.Len())
	}
	got, spilled, ok := w.Get("a")
	if !ok || spilled || string(got[0][:]) != "hello" {
		t.Errorf("Get = %v %v %v", got, spilled, ok)
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
	if w.Len() != 0 || w.Used() != 0 {
		t.Errorf("segment not freed: len=%d used=%d", w.Len(), w.Used())
	}
	if w.Consume("a") {
		t.Error("consume of missing key succeeded")
	}
	if w.Stats().Freed != 1 {
		t.Errorf("freed = %d", w.Stats().Freed)
	}
}

func TestCacheWorkerDuplicateAndErrors(t *testing.T) {
	w := NewCacheWorker(100)
	if _, err := w.Put("a", 10, nil, 1); err != nil {
		t.Fatal(err)
	}
	// A re-put replaces the previous attempt's segment (failure recovery
	// re-writes a partition) without leaking the old bytes from `used`.
	if _, err := w.Put("a", 30, nil, 1); err != nil {
		t.Fatalf("re-put rejected: %v", err)
	}
	if w.Used() != 30 || w.Len() != 1 {
		t.Errorf("after replace: used=%d len=%d, want 30/1", w.Used(), w.Len())
	}
	if _, err := w.Put("b", -1, nil, 1); err == nil {
		t.Error("negative size accepted")
	}
	if _, _, ok := w.Get("missing"); ok {
		t.Error("missing key found")
	}
	if w.Stats().Misses != 1 {
		t.Errorf("misses = %d", w.Stats().Misses)
	}
}

func TestCacheWorkerFailAll(t *testing.T) {
	w := NewCacheWorker(25)
	for i, k := range []string{"c", "a", "b"} {
		if _, err := w.Put(k, int64(10*(i+1)), nil, 2); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 25 with 60 bytes resident: something has spilled; the crash
	// loses spilled segments too.
	lost := w.FailAll()
	if want := []string{"a", "b", "c"}; len(lost) != 3 || lost[0] != want[0] || lost[1] != want[1] || lost[2] != want[2] {
		t.Fatalf("lost keys = %v, want %v", lost, want)
	}
	if w.Len() != 0 || w.Used() != 0 {
		t.Errorf("worker not empty after FailAll: len=%d used=%d", w.Len(), w.Used())
	}
	if w.Consume("a") || w.Drop("b") {
		t.Error("segments survived FailAll")
	}
	// The worker is reusable, as a restarted process would be.
	if _, err := w.Put("d", 5, nil, 1); err != nil {
		t.Fatal(err)
	}
	if w.Used() != 5 || w.Len() != 1 {
		t.Errorf("restarted worker: used=%d len=%d", w.Used(), w.Len())
	}
	if w.FailAll()[0] != "d" {
		t.Error("second FailAll did not report the new segment")
	}
}

func TestCacheWorkerLRUSpill(t *testing.T) {
	w := NewCacheWorker(100)
	mustPut := func(k string, size int64) int64 {
		t.Helper()
		sp, err := w.Put(k, size, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	mustPut("a", 40)
	mustPut("b", 40)
	if sp := mustPut("c", 40); sp != 40 {
		t.Errorf("spilled %d, want 40 (oldest: a)", sp)
	}
	if w.Used() != 80 {
		t.Errorf("used = %d", w.Used())
	}
	// "a" was LRU and spilled; reading it loads it back and may evict "b".
	_, wasSpilled, ok := w.Get("a")
	if !ok || !wasSpilled {
		t.Errorf("Get(a) spilled=%v ok=%v", wasSpilled, ok)
	}
	st := w.Stats()
	if st.SpillEvents < 1 || st.SpillBytes < 40 || st.LoadBytes != 40 {
		t.Errorf("stats = %+v", st)
	}
	if w.Used() > 100 {
		t.Errorf("over capacity after reload: %d", w.Used())
	}
}

func TestCacheWorkerRecencyOrder(t *testing.T) {
	w := NewCacheWorker(100)
	w.Put("a", 40, nil, 1)
	w.Put("b", 40, nil, 1)
	w.Get("a") // make "b" the LRU
	w.Put("c", 40, nil, 1)
	if _, spilled, _ := w.Get("b"); !spilled {
		t.Error("b should have spilled (was LRU)")
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
	if w.Used() != 0 || w.Len() != 0 {
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

// TestCacheWorkerOverCapacityServedFromDiskTier pins the spill/load thrash
// fix: a segment larger than the whole worker can never be memory-resident,
// so repeated Gets must serve it from the disk tier instead of loading it
// back and immediately re-spilling it. Before the fix every access charged
// LoadBytes + SpillBytes; after it, only the initial Put spills and each
// access counts a DiskRead.
func TestCacheWorkerOverCapacityServedFromDiskTier(t *testing.T) {
	w := NewCacheWorker(10)
	if _, err := w.Put("big", 50, nil, 4); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.SpillBytes != 50 || st.UsedBytes != 0 {
		t.Fatalf("after put: %+v", st)
	}
	for i := 0; i < 3; i++ {
		_, wasSpilled, ok := w.Get("big")
		if !ok || !wasSpilled {
			t.Fatalf("Get %d: spilled=%v ok=%v", i, wasSpilled, ok)
		}
	}
	st := w.Stats()
	if st.LoadBytes != 0 {
		t.Errorf("LoadBytes = %d, want 0 (no residency flapping)", st.LoadBytes)
	}
	if st.SpillBytes != 50 || st.SpillEvents != 1 {
		t.Errorf("SpillBytes = %d events = %d, want only the initial spill", st.SpillBytes, st.SpillEvents)
	}
	if st.DiskReads != 3 || st.DiskReadBytes != 150 {
		t.Errorf("DiskReads = %d bytes = %d, want 3/150", st.DiskReads, st.DiskReadBytes)
	}
	if w.Used() != 0 {
		t.Errorf("used = %d, want 0 (segment stays on the disk tier)", w.Used())
	}
	if !w.Spilled("big") {
		t.Error("segment left the disk tier")
	}
	// A normally sized spilled segment still loads back into memory.
	w2 := NewCacheWorker(100)
	w2.Put("a", 60, nil, 1)
	w2.Put("b", 60, nil, 1) // spills a
	if _, wasSpilled, _ := w2.Get("a"); !wasSpilled {
		t.Fatal("a should have been spilled")
	}
	if st := w2.Stats(); st.LoadBytes != 60 || st.DiskReads != 0 {
		t.Errorf("normal reload stats: %+v", st)
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

// TestCacheWorkerFailAllLostSpilledBytes pins the FailAll tier split: bytes
// lost from the disk tier are distinguished from in-memory losses.
func TestCacheWorkerFailAllLostSpilledBytes(t *testing.T) {
	w := NewCacheWorker(35)
	w.Put("a", 10, nil, 1)
	w.Put("b", 20, nil, 1)
	w.Put("c", 30, nil, 1) // spills a and b (LRU), keeps c resident
	if !w.Spilled("a") || !w.Spilled("b") || w.Spilled("c") {
		t.Fatalf("unexpected tier layout: used=%d", w.Used())
	}
	if lost := w.FailAll(); len(lost) != 3 {
		t.Fatalf("lost = %v", lost)
	}
	if st := w.Stats(); st.LostSpilledBytes != 30 {
		t.Errorf("LostSpilledBytes = %d, want 30 (a+b)", st.LostSpilledBytes)
	}
}

// TestCacheWorkerAccountingInvariant drives seeded random op sequences
// (Put/Get/Consume/Drop/FailAll) and asserts after every step that
// used == Σ size of resident non-spilled segments and used ≥ 0 — the
// memory-manager accounting invariant.
func TestCacheWorkerAccountingInvariant(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		capacity := int64(20 + r.Intn(150))
		w := NewCacheWorker(capacity)
		var keys []string
		next := 0
		check := func(step int, op string) {
			t.Helper()
			var want int64
			for _, s := range w.segs {
				if !s.spilled {
					want += s.size
				}
			}
			if w.used != want {
				t.Fatalf("seed %d step %d after %s: used=%d, resident sum=%d", seed, step, op, w.used, want)
			}
			if w.used < 0 {
				t.Fatalf("seed %d step %d after %s: used negative: %d", seed, step, op, w.used)
			}
			if st := w.Stats(); st.PeakUsed < w.used {
				t.Fatalf("seed %d step %d after %s: peak %d < used %d", seed, step, op, st.PeakUsed, w.used)
			}
		}
		for step := 0; step < 400; step++ {
			op := "put"
			switch r.Intn(10) {
			case 0, 1, 2:
				k := fmt.Sprintf("s%d", next)
				next++
				// Sizes occasionally exceed capacity to hit the disk-tier
				// serve path.
				if _, err := w.Put(k, int64(r.Intn(int(capacity)+40)), nil, 1+r.Intn(3)); err != nil {
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
			case 9:
				op = "failall"
				if r.Intn(10) == 0 { // rare: it resets everything
					w.FailAll()
				}
			}
			check(step, op)
		}
	}
}

// TestCacheWorkerProperty: under random operations, memory accounting never
// exceeds capacity and never goes negative.
func TestCacheWorkerProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cap := int64(50 + r.Intn(200))
		w := NewCacheWorker(cap)
		live := make(map[string]int)
		next := 0
		for i := 0; i < 200; i++ {
			switch r.Intn(3) {
			case 0:
				k := fmt.Sprintf("s%d", next)
				next++
				refs := 1 + r.Intn(3)
				if _, err := w.Put(k, int64(r.Intn(60)), nil, refs); err != nil {
					return false
				}
				live[k] = refs
			case 1:
				for k := range live {
					w.Get(k)
					break
				}
			case 2:
				for k := range live {
					if !w.Consume(k) {
						return false
					}
					live[k]--
					if live[k] == 0 {
						delete(live, k)
					}
					break
				}
			}
			if w.Used() < 0 || w.Used() > cap+60 {
				// Put may momentarily exceed before evictTo runs;
				// after Put returns, usage must be within capacity
				// unless a single segment exceeds it.
				return false
			}
			if w.Len() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
