package tpch

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"swift/internal/raceflag"
)

// liteDigest is an FNV-64a digest of a generated database: every table's
// name, partition count, row counts, row widths and kind-tagged values, in
// order. Two databases with equal digests are reflect.DeepEqual but for
// hash collisions, whatever values the generator shares between rows.
func liteDigest(t *testing.T, l *Lite) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, tab := range l.Tables() {
		h.Write([]byte(tab.Name))
		word(uint64(len(tab.Partitions)))
		for _, part := range tab.Partitions {
			word(uint64(len(part)))
			for _, r := range part {
				word(uint64(len(r)))
				for _, v := range r {
					switch v := v.(type) {
					case int64:
						h.Write([]byte{'i'})
						word(uint64(v))
					case float64:
						h.Write([]byte{'f'})
						word(math.Float64bits(v))
					case string:
						h.Write([]byte{'s'})
						word(uint64(len(v)))
						h.Write([]byte(v))
					default:
						t.Fatalf("%s holds %T", tab.Name, v)
					}
				}
			}
		}
	}
	return h.Sum64()
}

// TestGenerateLitePinnedDigest pins the generated databases themselves:
// the digests were taken from the generator that formatted and boxed every
// value afresh, so a generator that shares its boxes must still produce the
// same tables value for value, and the same RNG draws in the same order.
func TestGenerateLitePinnedDigest(t *testing.T) {
	for _, c := range []struct {
		sf     float64
		seed   int64
		digest uint64
	}{
		{5, 1, 0xa2c5c4b09bd4bcfc},
		{5, 2, 0x7062d69eedcb1339},
		{5, 3, 0x5a19d0a31a97a20b},
		{0.3, 7, 0x882ab0c4533efca3},
	} {
		t.Run(fmt.Sprintf("sf%g-seed%d", c.sf, c.seed), func(t *testing.T) {
			if got := liteDigest(t, GenerateLite(c.sf, c.seed, 4)); got != c.digest {
				t.Errorf("digest %#x, want %#x", got, c.digest)
			}
		})
	}
}

// TestGenerateLiteAllocs: generation allocates per row, never per shared
// value — the row itself and the few values no two rows share (an order's
// key and total, a customer's key and name), about 1.45 per row at both
// scales (10.7 when every value was boxed afresh). The budget is per
// generated row, so it must hold at both scales; boxing one more value per
// lineitem costs about 0.8 more.
func TestGenerateLiteAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const budget = 1.6 // allocations per generated row
	for _, sf := range []float64{0.3, 2.4} {
		rows := 0
		for _, tab := range GenerateLite(sf, 7, 4).Tables() {
			rows += tab.NumRows()
		}
		allocs := testing.AllocsPerRun(1, func() { GenerateLite(sf, 7, 4) })
		if per := allocs / float64(rows); per > budget {
			t.Errorf("sf %g: %.0f allocations for %d rows = %.2f per row, budget %.2f", sf, allocs, rows, per, budget)
		}
	}
}
