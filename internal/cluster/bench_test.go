package cluster_test

import (
	"testing"

	"swift/internal/cluster"
	"swift/internal/raceflag"
	"swift/internal/trace"
)

// TestAllocateSizedToSupply pins the saturated scheduler's allocation: a
// 600-task graphlet at the head of the queue asks for 600 executors on
// every task completion and receives the one that just freed. The result
// must be sized to the supply (8 bytes), not to the request (4.8 KB).
func TestAllocateSizedToSupply(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	cl := cluster.New(cluster.Config{Machines: 100, ExecutorsPerMachine: 30})
	held := cl.Allocate(cl.NumExecutors(), nil)
	if cl.FreeExecutors() != 0 {
		t.Fatalf("%d executors still free", cl.FreeExecutors())
	}
	next := 0
	one := make([]cluster.ExecutorID, 1)
	var got []cluster.ExecutorID
	allocs := testing.AllocsPerRun(500, func() {
		one[0] = held[next]
		cl.Release(one)
		got = cl.Allocate(600, nil)
		held[next] = got[0]
		next = (next + 1) % len(held)
	})
	if len(got) != 1 {
		t.Fatalf("Allocate(600) with one executor free returned %d", len(got))
	}
	if allocs > 1 {
		t.Errorf("Release+Allocate(600): %.1f allocs, want ≤ 1", allocs)
	}
	if c := cap(got); c*8 > 64 {
		t.Errorf("Allocate(600) with one executor free returned capacity %d (%d B), want ≤ 64 B", c, c*8)
	}
}

// benchAllocRelease cycles Allocate/Release through the stage sizes of a
// generated trace on a cluster kept nearly dry: the oldest grants are
// released only when the next stage would not fit, as a saturated
// scheduler does. One op is one stage's Allocate plus the Releases that
// made room for it.
func benchAllocRelease(b *testing.B, cfg cluster.Config, scale float64) {
	var sizes []int
	for _, j := range trace.Generate(trace.Spec{Jobs: 400, Seed: 1, Scale: scale}).Jobs {
		for _, st := range j.Job.Stages() {
			sizes = append(sizes, st.Tasks)
		}
	}
	cl := cluster.New(cfg)
	var held [][]cluster.ExecutorID
	head := 0
	step := func(i int) {
		need := sizes[i%len(sizes)]
		for cl.FreeExecutors() < need && head < len(held) {
			cl.Release(held[head])
			held[head] = nil
			head++
		}
		if head > 1024 && head*2 > len(held) {
			held = append(held[:0], held[head:]...)
			head = 0
		}
		held = append(held, cl.Allocate(need, nil))
	}
	for i := 0; cl.FreeExecutors() > cl.NumExecutors()/50; i++ {
		step(i) // fill to 98 % before timing
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

func BenchmarkAllocRelease3k(b *testing.B) {
	benchAllocRelease(b, cluster.Config{Machines: 100, ExecutorsPerMachine: 30}, 1)
}

func BenchmarkAllocRelease140k(b *testing.B) {
	benchAllocRelease(b, cluster.Config{Machines: 2334, ExecutorsPerMachine: 60}, 5)
}

// BenchmarkAllocateOneFree is the saturated round trip of
// TestAllocateSizedToSupply: release one executor, ask for 600.
func BenchmarkAllocateOneFree(b *testing.B) {
	cl := cluster.New(cluster.Config{Machines: 100, ExecutorsPerMachine: 30})
	held := cl.Allocate(cl.NumExecutors(), nil)
	one := make([]cluster.ExecutorID, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one[0] = held[i%len(held)]
		cl.Release(one)
		held[i%len(held)] = cl.Allocate(600, nil)[0]
	}
}
