package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func intRow(vs ...int64) Row {
	r := make(Row, len(vs))
	for i, v := range vs {
		r[i] = v
	}
	return r
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{int64(3), int64(2), 1},
		{1.5, 2.5, -1},
		{int64(2), 1.5, 1},
		{1.5, int64(2), -1},
		{"a", "b", -1},
		{"b", "b", 0},
		{false, true, -1},
		{true, true, 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("incomparable values did not panic")
		}
	}()
	Compare("x", int64(1))
}

func TestSchemaCol(t *testing.T) {
	s := Schema{"a", "b"}
	if s.Col("b") != 1 || s.Col("z") != -1 {
		t.Error("Col wrong")
	}
	if s.MustCol("a") != 0 {
		t.Error("MustCol wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCol on unknown did not panic")
		}
	}()
	s.MustCol("z")
}

func TestHashJoin(t *testing.T) {
	build := []Row{{int64(1), "a"}, {int64(2), "b"}, {int64(2), "c"}}
	probe := []Row{{int64(2), "x"}, {int64(3), "y"}, {int64(1), "z"}}
	j := NewHashJoin(build, []int{0}, NewSliceIter(probe), []int{0})
	got := Drain(j)
	if len(got) != 3 {
		t.Fatalf("got %d rows: %v", len(got), got)
	}
	// Probe row (2,x) matches both (2,b) and (2,c).
	seen := map[string]bool{}
	for _, r := range got {
		seen[r[1].(string)+r[3].(string)] = true
	}
	for _, want := range []string{"xb", "xc", "za"} {
		if !seen[want] {
			t.Errorf("missing join pair %s in %v", want, got)
		}
	}
}

func TestMergeJoin(t *testing.T) {
	left := []Row{{int64(1), "l1"}, {int64(2), "l2"}, {int64(2), "l2b"}, {int64(4), "l4"}}
	right := []Row{{int64(2), "r2"}, {int64(2), "r2b"}, {int64(3), "r3"}, {int64(4), "r4"}}
	m := NewMergeJoin(left, []int{0}, right, []int{0})
	got := Drain(m)
	// key 2: 2x2 = 4 pairs; key 4: 1 pair.
	if len(got) != 5 {
		t.Fatalf("got %d rows: %v", len(got), got)
	}
	for _, r := range got {
		if Compare(r[0], r[2]) != 0 {
			t.Errorf("mismatched keys in %v", r)
		}
	}
}

// TestMergeJoinMatchesHashJoin cross-validates the two join algorithms on
// random inputs.
func TestMergeJoinMatchesHashJoin(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gen := func(n int) []Row {
			rows := make([]Row, n)
			for i := range rows {
				rows[i] = Row{int64(r.Intn(8)), int64(i)}
			}
			return rows
		}
		left, right := gen(r.Intn(30)), gen(r.Intn(30))
		SortRows(left, []int{0})
		SortRows(right, []int{0})
		mj := Drain(NewMergeJoin(left, []int{0}, right, []int{0}))
		hj := Drain(NewHashJoin(right, []int{0}, NewSliceIter(left), []int{0}))
		if len(mj) != len(hj) {
			return false
		}
		key := func(rs []Row) []string {
			out := make([]string, len(rs))
			for i, row := range rs {
				out[i] = rowKey(row)
			}
			sort.Strings(out)
			return out
		}
		return reflect.DeepEqual(key(mj), key(hj))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func rowKey(r Row) string {
	s := ""
	for _, v := range r {
		switch x := v.(type) {
		case int64:
			s += "i" + string(rune('0'+x%10)) + "|"
		default:
			s += "v|"
		}
	}
	return s
}

func TestHashAggregate(t *testing.T) {
	rows := []Row{
		{"a", int64(1)}, {"b", int64(2)}, {"a", int64(3)}, {"b", int64(4)}, {"a", int64(5)},
	}
	got := HashAggregate(rows, []int{0}, []Agg{{AggSum, 1}, {AggCount, 1}, {AggMin, 1}, {AggMax, 1}})
	want := []Row{
		{"a", int64(9), int64(3), int64(1), int64(5)},
		{"b", int64(6), int64(2), int64(2), int64(4)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestStreamedAggregateMatchesHash(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(100)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{int64(r.Intn(6)), float64(r.Intn(10))}
		}
		hashed := HashAggregate(rows, []int{0}, []Agg{{AggSum, 1}, {AggCount, 1}})
		sorted := append([]Row(nil), rows...)
		SortRows(sorted, []int{0})
		streamed := StreamedAggregate(NewSliceIter(sorted), []int{0}, []Agg{{AggSum, 1}, {AggCount, 1}})
		return reflect.DeepEqual(hashed, streamed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMergeSortedRuns(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var runs [][]Row
		var all []Row
		for i := 0; i < 1+r.Intn(5); i++ {
			n := r.Intn(20)
			run := make([]Row, n)
			for j := range run {
				run[j] = Row{int64(r.Intn(100))}
			}
			SortRows(run, []int{0})
			runs = append(runs, run)
			all = append(all, run...)
		}
		merged := MergeSortedRuns(runs, []int{0})
		SortRows(all, []int{0})
		if len(merged) != len(all) {
			return false
		}
		for i := range merged {
			if Compare(merged[i][0], all[i][0]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// mixedKey returns a random numeric key whose kind (int64 vs integral
// float64) is itself random — exercising the Hash normalization and the
// Compare-based equality used by joins and aggregates.
func mixedKey(r *rand.Rand, domain int) Value {
	k := r.Intn(domain)
	if r.Intn(2) == 0 {
		return int64(k)
	}
	return float64(k)
}

// TestHashJoinMixedNumericKeys: an int64 build column joined against a
// float64 probe column must match wherever Compare says the keys are
// equal (the Hash normalization regression).
func TestHashJoinMixedNumericKeys(t *testing.T) {
	build := []Row{{int64(1), "b1"}, {int64(2), "b2"}, {int64(3), "b3"}}
	probe := []Row{{float64(2), "p2"}, {float64(3), "p3"}, {float64(9), "p9"}}
	got := Drain(NewHashJoin(build, []int{0}, NewSliceIter(probe), []int{0}))
	if len(got) != 2 {
		t.Fatalf("join found %d matches, want 2: %v", len(got), got)
	}
	for _, r := range got {
		if Compare(r[0], r[2]) != 0 {
			t.Errorf("mismatched keys in %v", r)
		}
	}
}

// TestMergeJoinMatchesHashJoinMixedKinds cross-validates the joins when
// numeric key kinds are mixed within the same column.
func TestMergeJoinMatchesHashJoinMixedKinds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gen := func(n int) []Row {
			rows := make([]Row, n)
			for i := range rows {
				rows[i] = Row{mixedKey(r, 6), int64(i)}
			}
			return rows
		}
		left, right := gen(r.Intn(30)), gen(r.Intn(30))
		SortRows(left, []int{0})
		SortRows(right, []int{0})
		mj := Drain(NewMergeJoin(left, []int{0}, right, []int{0}))
		hj := Drain(NewHashJoin(right, []int{0}, NewSliceIter(left), []int{0}))
		return len(mj) == len(hj) && reflect.DeepEqual(canonRows(mj), canonRows(hj))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// canonRows renders rows order-insensitively with numerics normalized, so
// int64(3) and float64(3) — equal under Compare — canonicalize alike.
func canonRows(rs []Row) []string {
	out := make([]string, len(rs))
	for i, row := range rs {
		s := ""
		for _, v := range row {
			switch x := v.(type) {
			case int64:
				s += fmt.Sprintf("n%g|", float64(x))
			case float64:
				s += fmt.Sprintf("n%g|", x)
			default:
				s += fmt.Sprintf("v%v|", x)
			}
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

// TestHashAggregateMatchesStreamedMultiKey: the flat-table hash aggregate
// and the one-pass streamed aggregate must agree on random multi-key,
// mixed-kind row sets (after sorting the input for the streamed one).
func TestHashAggregateMatchesStreamedMultiKey(t *testing.T) {
	aggs := []Agg{{AggSum, 2}, {AggCount, 2}, {AggMin, 2}, {AggMax, 2}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(120)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{int64(r.Intn(4)), string(rune('a' + r.Intn(3))), float64(r.Intn(10))}
		}
		hashed := HashAggregate(rows, []int{0, 1}, aggs)
		sorted := append([]Row(nil), rows...)
		SortRows(sorted, []int{0, 1})
		streamed := StreamedAggregate(NewSliceIter(sorted), []int{0, 1}, aggs)
		return reflect.DeepEqual(hashed, streamed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestHashAggregateMixedKindKeys: rows whose group key arrives sometimes
// as int64 and sometimes as float64 must land in one group.
func TestHashAggregateMixedKindKeys(t *testing.T) {
	rows := []Row{
		{int64(7), int64(1)},
		{float64(7), int64(10)},
		{int64(8), int64(100)},
	}
	got := HashAggregate(rows, []int{0}, []Agg{{AggSum, 1}, {AggCount, 1}})
	if len(got) != 2 {
		t.Fatalf("groups = %d, want 2: %v", len(got), got)
	}
	if got[0][1] != int64(11) || got[0][2] != int64(2) {
		t.Errorf("mixed-kind group folded to %v", got[0])
	}
}

func TestMergeSortedRunsManyRuns(t *testing.T) {
	// More than four runs exercises the cursor-heap path.
	r := rand.New(rand.NewSource(9))
	var runs [][]Row
	var all []Row
	for i := 0; i < 12; i++ {
		n := r.Intn(40)
		run := make([]Row, n)
		for j := range run {
			run[j] = Row{int64(r.Intn(50))}
		}
		SortRows(run, []int{0})
		runs = append(runs, run)
		all = append(all, run...)
	}
	merged := MergeSortedRuns(runs, []int{0})
	SortRows(all, []int{0})
	if len(merged) != len(all) {
		t.Fatalf("merged %d rows, want %d", len(merged), len(all))
	}
	for i := range merged {
		if Compare(merged[i][0], all[i][0]) != 0 {
			t.Fatalf("order diverges at %d: %v vs %v", i, merged[i], all[i])
		}
	}
}

// TestTopKMatchesSortOracle: the bounded heap must reproduce the
// copy+stable-sort+truncate oracle exactly, including tie stability.
func TestTopKMatchesSortOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(80)
		rows := make([]Row, n)
		for i := range rows {
			// Small key domain forces ties; second column is the input
			// position, which the oracle's stability preserves.
			rows[i] = Row{int64(r.Intn(8)), int64(i)}
		}
		k := r.Intn(20)
		oracle := append([]Row(nil), rows...)
		sort.SliceStable(oracle, func(i, j int) bool { return CompareRows(oracle[i], oracle[j], []int{0}) < 0 })
		if k < len(oracle) {
			oracle = oracle[:k]
		}
		got := TopK(rows, []int{0}, k)
		if len(got) != len(oracle) {
			return false
		}
		for i := range got {
			if got[i][0] != oracle[i][0] || got[i][1] != oracle[i][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestTopKDesc(t *testing.T) {
	rows := []Row{intRow(5), intRow(1), intRow(9), intRow(7)}
	got := TopKDesc(rows, []int{0}, 2)
	if len(got) != 2 || got[0][0] != int64(9) || got[1][0] != int64(7) {
		t.Errorf("got %v", got)
	}
	// Stability on ties: the earlier input row ranks first.
	tied := []Row{{int64(3), "first"}, {int64(3), "second"}, {int64(1), "low"}}
	got = TopKDesc(tied, []int{0}, 2)
	if got[0][1] != "first" || got[1][1] != "second" {
		t.Errorf("tie order: %v", got)
	}
}

func TestTopK(t *testing.T) {
	rows := []Row{intRow(5), intRow(1), intRow(3), intRow(2)}
	got := TopK(rows, []int{0}, 2)
	if len(got) != 2 || got[0][0] != int64(1) || got[1][0] != int64(2) {
		t.Errorf("got %v", got)
	}
	if got := TopK(rows, []int{0}, 10); len(got) != 4 {
		t.Errorf("k>len: %v", got)
	}
	// Input not mutated.
	if rows[0][0] != int64(5) {
		t.Error("TopK mutated input")
	}
}

func TestHashStability(t *testing.T) {
	a := Row{"key", int64(7), 1.5, true}
	b := Row{"key", int64(7), 1.5, true}
	if Hash(a, []int{0, 1, 2, 3}) != Hash(b, []int{0, 1, 2, 3}) {
		t.Error("equal rows hash differently")
	}
	if Hash(a, []int{0}) == Hash(Row{"other"}, []int{0}) {
		t.Error("suspicious collision") // not guaranteed, but this pair must differ
	}
}

func TestNewTablePartitioning(t *testing.T) {
	rows := make([]Row, 10)
	for i := range rows {
		rows[i] = intRow(int64(i))
	}
	tab := NewTable("t", Schema{"x"}, rows, 3)
	if len(tab.Partitions) != 3 || tab.NumRows() != 10 {
		t.Errorf("partitions=%d rows=%d", len(tab.Partitions), tab.NumRows())
	}
	tab2 := NewTable("t2", Schema{"x"}, rows, 0)
	if len(tab2.Partitions) != 1 {
		t.Error("zero parts should clamp to 1")
	}
	// Partitions without rows — past the end, or empty — keep the schema's
	// column layout.
	sparse := NewTable("t3", Schema{"x", "y"}, rows[:1], 2)
	for _, i := range []int{1, 2, -1} {
		if b := sparse.PartitionBatch(i); b.Len != 0 || b.NumCols() != 2 {
			t.Errorf("partition %d = %dx%d, want 0x2", i, b.Len, b.NumCols())
		}
	}
}
