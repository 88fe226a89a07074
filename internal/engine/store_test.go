package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"swift/internal/shuffle"
)

// TestStoreUsedBytesZeroAfterDropJob pins the byte-accounting invariant:
// whatever a job writes — batches converted from rows at the edge, native
// batches, selection views, nil, re-puts from recovery —
// CacheStats.UsedBytes returns to zero once DropJob releases the job's
// segments.
func TestStoreUsedBytesZeroAfterDropJob(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	rows := randRows(r, 100)
	batch := BatchFromRows(randRows(r, 50))

	t.Run("row and batch puts", func(t *testing.T) {
		s := NewStore(3, 0)
		if err := s.PutBatch("job", 0, "k-rows", BatchFromRows(rows)); err != nil {
			t.Fatal(err)
		}
		if err := s.PutBatch("job", 1, "k-batch", batch); err != nil {
			t.Fatal(err)
		}
		if err := s.PutBatch("job", 2, "k-nil", nil); err != nil {
			t.Fatal(err)
		}
		view := PartitionBatchByKey(batch, []int{0}, 3)[1]
		if err := s.PutBatch("job", 0, "k-view", view); err != nil {
			t.Fatal(err)
		}
		if used := s.Stats().UsedBytes; used <= 0 {
			t.Fatalf("UsedBytes = %d before drop", used)
		}
		// Exact accounting: the worker holds precisely the encoded sizes of
		// what it stores — the same bytes the wire pays, a view's dense
		// encoding included.
		want := int64(len(EncodeBatch(BatchFromRows(rows))) +
			len(EncodeBatch(batch)) + len(EncodeBatch(&Batch{})) + len(EncodeBatch(view)))
		if used := s.Stats().UsedBytes; used != want {
			t.Fatalf("UsedBytes = %d, want exact encoded %d", used, want)
		}
		s.DropJob("job")
		if used := s.Stats().UsedBytes; used != 0 {
			t.Fatalf("UsedBytes = %d after DropJob", used)
		}
	})

	t.Run("re-put replaces accounting", func(t *testing.T) {
		s := NewStore(2, 0)
		for attempt := 0; attempt < 5; attempt++ {
			// Recovery re-writes the same key, alternating machines.
			if err := s.PutBatch("job", attempt, "k", BatchFromRows(rows)); err != nil {
				t.Fatal(err)
			}
		}
		want := int64(len(EncodeBatch(BatchFromRows(rows))))
		if used := s.Stats().UsedBytes; used != want {
			t.Fatalf("UsedBytes = %d after re-puts, want %d", used, want)
		}
		s.DropJob("job")
		if used := s.Stats().UsedBytes; used != 0 {
			t.Fatalf("UsedBytes = %d after DropJob", used)
		}
	})

}

// TestCacheWorkerCapacityPanics: the Cache Worker has no spill tier, so a
// capacity other than 0 — given to the worker or to the store that builds
// one per machine — panics naming the value instead of being ignored.
func TestCacheWorkerCapacityPanics(t *testing.T) {
	for name, build := range map[string]func(){
		"NewCacheWorker": func() { shuffle.NewCacheWorker(64) },
		"NewStore":       func() { NewStore(1, 64) },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "64") {
					t.Errorf("%s(64): panic %q, want one naming the capacity", name, msg)
				}
			}()
			build()
		}()
	}
}
