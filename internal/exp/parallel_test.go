package exp

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestSweepOrderAndCoverage(t *testing.T) {
	// Every index runs exactly once and lands in its own slot, whatever the
	// worker count (including workers > n and the serial degenerate case).
	for _, workers := range []int{1, 2, 7, 64, 0} {
		var calls atomic.Int64
		res := Sweep(100, workers, func(i int) int {
			calls.Add(1)
			return i * i
		})
		if calls.Load() != 100 {
			t.Fatalf("workers=%d: %d calls, want 100", workers, calls.Load())
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("workers=%d: res[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if res := Sweep(0, 4, func(i int) int { return i }); len(res) != 0 {
		t.Fatalf("empty sweep returned %d results", len(res))
	}
}

// TestRunAllParallelMatchesSerial is the determinism witness for the sweep
// runner: four workers must reproduce the one-worker outputs and obs stream
// hashes byte for byte.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	cfg := Config{Seed: 3}
	names := []string{"fig3", "fig9a", "fig12", "fig14", "table1"}
	serial := RunAll(names, cfg, 1, true)
	parallel := RunAll(names, cfg, 4, true)
	if len(serial) != len(names) || len(parallel) != len(names) {
		t.Fatalf("result counts %d/%d, want %d", len(serial), len(parallel), len(names))
	}
	emptyHash := RunAll([]string{"nope"}, cfg, 1, true)[0].Hash
	for i, name := range names {
		s, p := serial[i], parallel[i]
		if s.Name != name || p.Name != name {
			t.Fatalf("slot %d holds %q/%q, want %q", i, s.Name, p.Name, name)
		}
		if s.Err != nil || p.Err != nil {
			t.Fatalf("%s: errors %v / %v", name, s.Err, p.Err)
		}
		if s.Output == "" || s.Output != p.Output {
			t.Errorf("%s: parallel output differs from serial (%dB vs %dB)", name, len(p.Output), len(s.Output))
		}
		if s.Hash != p.Hash {
			t.Errorf("%s: parallel hash %016x != serial %016x", name, p.Hash, s.Hash)
		}
		if s.Hash == emptyHash {
			t.Errorf("%s: stream hash is the empty-stream hash; recorder not plumbed through", name)
		}
	}
}

func TestRunAllUnknownName(t *testing.T) {
	res := RunAll([]string{"fig12", "nope"}, Config{Seed: 1}, 2, false)
	if res[0].Err != nil {
		t.Fatalf("fig12: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, ErrUnknown) {
		t.Fatalf("unknown name error = %v, want ErrUnknown", res[1].Err)
	}
}

// BenchmarkRunAll measures a sweep of six experiments serial vs parallel.
func BenchmarkRunAll(b *testing.B) {
	cfg := Config{Seed: 1}
	names := []string{"fig3", "fig9a", "fig9b", "table1", "fig12", "fig14"}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range RunAll(names, cfg, workers, false) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
