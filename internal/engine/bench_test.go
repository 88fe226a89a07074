package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// Microbenchmarks for the engine's data-plane hot paths (the kernels are in
// batch_bench_test.go). Every benchmark reports allocations
// (b.ReportAllocs) so each kernel's allocation budget is visible in the
// bench trajectory; scripts/bench.sh runs the suite and snapshots the
// numbers, and `benchstat` compares runs (see DESIGN.md, "Data-plane
// performance"). The row kernels are a test oracle and are not timed.

// benchRows builds n rows of (int64 key, string key, float64 payload) with
// keys drawn from a small domain so joins and aggregates form real groups.
func benchRows(n, keyDomain int, seed int64) []Row {
	r := rand.New(rand.NewSource(seed))
	rows := make([]Row, n)
	for i := range rows {
		k := int64(r.Intn(keyDomain))
		rows[i] = Row{k, fmt.Sprintf("key-%04d", k), r.Float64() * 1000}
	}
	return rows
}

func BenchmarkHash(b *testing.B) {
	row := Row{int64(123456789), "some-string-key", 3.14159, true}
	cases := []struct {
		name string
		keys []int
	}{
		{"int64", []int{0}},
		{"string", []int{1}},
		{"float64", []int{2}},
		{"all", []int{0, 1, 2, 3}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= Hash(row, c.keys)
			}
			_ = sink
		})
	}
}
