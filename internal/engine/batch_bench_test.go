package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// Microbenchmarks for the engine's data-plane kernels, on the workloads
// (sizes, key domains, seeds) the retired row rungs used, so the
// BENCH_engine.json trajectory stays comparable across the retirement.
// Every benchmark reports allocations (b.ReportAllocs) so each kernel's
// allocation budget is visible in the bench trajectory; scripts/bench.sh
// runs the suite and snapshots the numbers, and `benchstat` compares runs
// (see DESIGN.md, "Data-plane performance"). The row→batch conversion
// happens outside the timer: plans hold batches end-to-end. The row kernels
// are a test oracle and are not timed.

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

func BenchmarkBatchHashJoin(b *testing.B) {
	build := BatchFromRows(benchRows(1000, 500, 1))
	probe := BatchFromRows(benchRows(4000, 500, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := HashJoinBatch(build, []int{0}, probe, []int{0})
		if out.Len == 0 {
			b.Fatal("empty join")
		}
	}
}

func BenchmarkBatchHashAggregate(b *testing.B) {
	batch := BatchFromRows(benchRows(8000, 200, 3))
	aggs := []Agg{{AggSum, 2}, {AggCount, 0}, {AggMin, 2}, {AggMax, 2}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := HashAggregateBatch(batch, []int{0}, aggs)
		if out.Len == 0 {
			b.Fatal("no groups")
		}
	}
}

func BenchmarkBatchSort(b *testing.B) {
	cases := []struct {
		name string
		keys []int
	}{
		{"int64Key", []int{0}},
		{"stringKey", []int{1}},
		{"multiKey", []int{0, 1, 2}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			src := BatchFromRows(benchRows(4000, 1000, 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := SortBatch(src, c.keys)
				if out.Len != src.Len {
					b.Fatal("lost rows")
				}
			}
		})
	}
}

func BenchmarkBatchTopK(b *testing.B) {
	batch := BatchFromRows(benchRows(8000, 8000, 5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := TopKBatch(batch, []int{0}, 50, true); out.Len != 50 {
			b.Fatal("wrong k")
		}
	}
}

func BenchmarkBatchPartitionByKey(b *testing.B) {
	batch := BatchFromRows(benchRows(8000, 4000, 6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := PartitionBatchByKey(batch, []int{0}, 16)
		if len(parts) != 16 {
			b.Fatal("wrong fan-out")
		}
	}
}

func BenchmarkBatchFilter(b *testing.B) {
	batch := BatchFromRows(benchRows(8000, 4000, 9))
	ints := batch.Cols[0].Ints
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := FilterBatch(batch, func(i int) bool { return ints[i]&1 == 0 })
		if out.Len == 0 {
			b.Fatal("filtered everything")
		}
	}
}

func BenchmarkBatchCodecEncode(b *testing.B) {
	batch := BatchFromRows(benchRows(8000, 4000, 10))
	buf := make([]byte, 0, EncodedBatchSize(batch))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendBatch(buf[:0], batch)
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkBatchCodecDecode(b *testing.B) {
	enc := EncodeBatch(BatchFromRows(benchRows(8000, 4000, 10)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := DecodeBatch(enc)
		if err != nil || out.Len != 8000 {
			b.Fatal("bad decode")
		}
	}
	b.SetBytes(int64(len(enc)))
}

// BenchmarkBatchFilterChain measures a filter flowing into downstream
// kernels — the case selection vectors exist for: the lazy view feeds
// hashing/aggregation directly instead of gathering half the batch first.
func BenchmarkBatchFilterChain(b *testing.B) {
	batch := BatchFromRows(benchRows(8000, 200, 9))
	ints := batch.Cols[0].Ints
	aggs := []Agg{{AggSum, 2}, {AggCount, 0}}
	b.Run("aggregate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := FilterBatch(batch, func(i int) bool { return ints[i]&1 == 0 })
			if out := HashAggregateBatch(f, []int{1}, aggs); out.Len == 0 {
				b.Fatal("no groups")
			}
		}
	})
	b.Run("partition", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := FilterBatch(batch, func(i int) bool { return ints[i]&1 == 0 })
			if parts := PartitionBatchByKey(f, []int{1}, 16); len(parts) != 16 {
				b.Fatal("wrong fan-out")
			}
		}
	})
	b.Run("sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := FilterBatch(batch, func(i int) bool { return ints[i]&1 == 0 })
			if out := SortBatch(f, []int{1, 0}); out.Len != f.Len {
				b.Fatal("lost rows")
			}
		}
	})
}

func BenchmarkHashBatchInto(b *testing.B) {
	batch := BatchFromRows(benchRows(8000, 4000, 11))
	dst := make([]uint64, batch.Len)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashBatchInto(batch, []int{0, 1, 2}, dst)
	}
}
