package engine

import (
	"math/rand"
	"testing"
)

// TestStoreUsedBytesZeroAfterDropJob pins the byte-accounting invariant:
// whatever a job writes — batches converted from rows at the edge, native
// batches, selection views, nil, re-puts from recovery, LRU spill under
// pressure — CacheStats.UsedBytes returns to zero once DropJob releases the
// job's segments.
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

	t.Run("spill path", func(t *testing.T) {
		// Tiny capacity: every put pushes earlier segments to disk.
		s := NewStore(1, 64)
		for i := 0; i < 8; i++ {
			key := SegmentKey("job", "a", "b", i, 0)
			if err := s.PutBatch("job", 0, key, BatchFromRows(rows[:10+i])); err != nil {
				t.Fatal(err)
			}
		}
		if st := s.Stats(); st.SpillEvents == 0 {
			t.Fatal("expected spills under a 64-byte budget")
		}
		// Reads load spilled segments back in (and may evict others).
		if _, ok := s.GetBatch(SegmentKey("job", "a", "b", 0, 0), nil); !ok {
			t.Fatal("segment lost")
		}
		s.DropJob("job")
		if used := s.Stats().UsedBytes; used != 0 {
			t.Fatalf("UsedBytes = %d after DropJob with spills", used)
		}
	})
}
