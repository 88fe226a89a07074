package dag

import (
	"strings"
	"testing"

	"swift/internal/raceflag"
)

func TestAddStageValidation(t *testing.T) {
	j := NewJob("j")
	if err := j.AddStage(&Stage{Name: "", Tasks: 1}); err == nil {
		t.Error("empty stage name accepted")
	}
	if err := j.AddStage(&Stage{Name: "a", Tasks: 0}); err == nil {
		t.Error("zero task count accepted")
	}
	if err := j.AddStage(&Stage{Name: "a", Tasks: -3}); err == nil {
		t.Error("negative task count accepted")
	}
	if err := j.AddStage(&Stage{Name: "a", Tasks: 2}); err != nil {
		t.Fatalf("valid stage rejected: %v", err)
	}
	if err := j.AddStage(&Stage{Name: "a", Tasks: 2}); err == nil {
		t.Error("duplicate stage accepted")
	}
	if err := j.AddStage(nil); err == nil {
		t.Error("nil stage accepted")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	j := NewJob("j")
	mustStage(t, j, "a", 1)
	mustStage(t, j, "b", 1)
	if err := j.AddEdge(&Edge{From: "a", To: "a"}); err == nil {
		t.Error("self-loop accepted")
	}
	if err := j.AddEdge(&Edge{From: "x", To: "b"}); err == nil {
		t.Error("unknown producer accepted")
	}
	if err := j.AddEdge(&Edge{From: "a", To: "x"}); err == nil {
		t.Error("unknown consumer accepted")
	}
	if err := j.AddEdge(nil); err == nil {
		t.Error("nil edge accepted")
	}
	if err := j.AddEdge(&Edge{From: "a", To: "b"}); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := j.AddEdge(&Edge{From: "a", To: "b"}); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestEdgeModeFromOperator(t *testing.T) {
	j := NewJob("j")
	mustStage(t, j, "a", 1)
	mustStage(t, j, "b", 1)
	mustStage(t, j, "c", 1)
	if err := j.AddEdge(&Edge{From: "a", To: "b", Op: OpMergeJoin}); err != nil {
		t.Fatal(err)
	}
	if err := j.AddEdge(&Edge{From: "a", To: "c", Op: OpShuffleRead}); err != nil {
		t.Fatal(err)
	}
	if got := j.Out("a")[0].Mode; got != Barrier {
		t.Errorf("MergeJoin edge mode = %v, want Barrier", got)
	}
	if got := j.Out("a")[1].Mode; got != Pipeline {
		t.Errorf("ShuffleRead edge mode = %v, want Pipeline", got)
	}
}

func TestClassifyProducerGlobalSort(t *testing.T) {
	// Fig. 4 rule: a stage containing MergeSort makes its outgoing edges
	// barriers, while its incoming edges stay pipeline.
	j := NewJob("j")
	mustStage(t, j, "m1", 4)
	if err := j.AddStage(&Stage{Name: "j4", Tasks: 2, Operators: []Operator{Op(OpShuffleRead), Op(OpMergeSort), Op(OpShuffleWrite)}}); err != nil {
		t.Fatal(err)
	}
	mustStage(t, j, "j6", 2)
	if err := j.AddEdge(&Edge{From: "m1", To: "j4", Op: OpShuffleRead}); err != nil {
		t.Fatal(err)
	}
	if err := j.AddEdge(&Edge{From: "j4", To: "j6", Op: OpShuffleRead}); err != nil {
		t.Fatal(err)
	}
	j.Classify()
	if got := j.Out("m1")[0].Mode; got != Pipeline {
		t.Errorf("m1->j4 mode = %v, want Pipeline", got)
	}
	if got := j.Out("j4")[0].Mode; got != Barrier {
		t.Errorf("j4->j6 mode = %v, want Barrier", got)
	}
}

func TestTopoOrder(t *testing.T) {
	j := NewBuilder("t").
		Stage("c", 1).Stage("a", 1).Stage("b", 1).
		Pipeline("a", "b", 0).Pipeline("b", "c", 0).
		MustBuild()
	order, err := j.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("topo order = %v, want %v", order, want)
		}
	}
}

func TestTopoOrderCycle(t *testing.T) {
	j := NewJob("cyc")
	mustStage(t, j, "a", 1)
	mustStage(t, j, "b", 1)
	if err := j.AddEdge(&Edge{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := j.AddEdge(&Edge{From: "b", To: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
	if err := j.Validate(); err == nil {
		t.Error("Validate accepted a cyclic job")
	}
}

func TestTopoOrderCache(t *testing.T) {
	j := NewJob("c")
	mustStage(t, j, "b", 1)
	mustStage(t, j, "a", 1)
	if got := order(t, j); strings.Join(got, ",") != "b,a" {
		t.Fatalf("order = %v, want [b a]", got)
	}
	// An edge added after a call reorders the next one.
	if err := j.AddEdge(&Edge{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	if got := order(t, j); strings.Join(got, ",") != "a,b" {
		t.Fatalf("order after AddEdge = %v, want [a b]", got)
	}
	// So does a stage.
	mustStage(t, j, "c", 1)
	got := order(t, j)
	if strings.Join(got, ",") != "a,b,c" {
		t.Fatalf("order after AddStage = %v, want [a b c]", got)
	}
	// A caller's slice is its own.
	got[0] = "zzz"
	if again := order(t, j); again[0] != "a" {
		t.Fatalf("mutating a returned order changed the next one: %v", again)
	}
	// A clone's cache is independent of its source's.
	c := j.Clone()
	mustStage(t, c, "d", 1)
	if got := order(t, c); strings.Join(got, ",") != "a,b,c,d" {
		t.Fatalf("clone order = %v", got)
	}
	if got := order(t, j); strings.Join(got, ",") != "a,b,c" {
		t.Fatalf("source order after the clone grew = %v", got)
	}
	// A cycle is an error on every call, never a cached order.
	if err := j.AddEdge(&Edge{From: "b", To: "a"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got, err := j.TopoOrder(); err == nil {
			t.Fatalf("call %d: cyclic job ordered as %v", i, got)
		}
	}
}

func TestTopoOrderAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	j := NewBuilder("a").
		Stage("c", 1).Stage("a", 1).Stage("b", 1).Stage("d", 1).
		Pipeline("a", "b", 0).Barrier("b", "c", 0).Pipeline("c", "d", 0).
		MustBuild()
	got := testing.AllocsPerRun(100, func() {
		if _, err := j.TopoOrder(); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Errorf("cached TopoOrder: %v allocations, want 1 (the copy)", got)
	}
}

// TopoIndex reads the cached order: nothing allocates on a validated job.
func TestTopoIndexAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	j := NewBuilder("a").
		Stage("c", 1).Stage("a", 1).Stage("b", 1).Stage("d", 1).
		Pipeline("a", "b", 0).Barrier("b", "c", 0).Pipeline("c", "d", 0).
		MustBuild()
	got := testing.AllocsPerRun(100, func() {
		if i := j.TopoIndex("c"); i != 2 {
			t.Fatalf("TopoIndex(c) = %d, want 2", i)
		}
	})
	if got != 0 {
		t.Errorf("TopoIndex on a validated job: %v allocations, want 0", got)
	}
}

// TopoIndex follows the order through AddStage and AddEdge, and names no
// position for an unknown stage or in a cyclic job.
func TestTopoIndex(t *testing.T) {
	j := NewJob("i")
	mustStage(t, j, "b", 1)
	mustStage(t, j, "a", 1)
	if j.TopoIndex("b") != 0 || j.TopoIndex("a") != 1 {
		t.Fatalf("TopoIndex(b, a) = %d, %d, want 0, 1", j.TopoIndex("b"), j.TopoIndex("a"))
	}
	if err := j.AddEdge(&Edge{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	if j.TopoIndex("a") != 0 || j.TopoIndex("b") != 1 {
		t.Fatalf("after AddEdge TopoIndex(a, b) = %d, %d, want 0, 1", j.TopoIndex("a"), j.TopoIndex("b"))
	}
	mustStage(t, j, "c", 1)
	if err := j.AddEdge(&Edge{From: "c", To: "a"}); err != nil {
		t.Fatal(err)
	}
	if j.TopoIndex("c") != 0 || j.TopoIndex("a") != 1 || j.TopoIndex("b") != 2 {
		t.Fatalf("after AddStage TopoIndex(c, a, b) = %d, %d, %d, want 0, 1, 2",
			j.TopoIndex("c"), j.TopoIndex("a"), j.TopoIndex("b"))
	}
	if i := j.TopoIndex("zzz"); i != -1 {
		t.Errorf("TopoIndex of an unknown stage = %d, want -1", i)
	}
	if err := j.AddEdge(&Edge{From: "b", To: "c"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if i := j.TopoIndex(name); i != -1 {
			t.Errorf("TopoIndex(%s) in a cyclic job = %d, want -1", name, i)
		}
	}
}

func order(t *testing.T, j *Job) []string {
	t.Helper()
	o, err := j.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestValidateEmpty(t *testing.T) {
	if err := NewJob("e").Validate(); err == nil {
		t.Error("empty job validated")
	}
}

func TestRootsAndSinks(t *testing.T) {
	j := NewBuilder("rs").
		Stage("a", 1).Stage("b", 1).Stage("c", 1).Stage("d", 1).
		Pipeline("a", "c", 0).Pipeline("b", "c", 0).Pipeline("c", "d", 0).
		MustBuild()
	if got := j.Sinks(); len(got) != 1 || got[0] != "d" {
		t.Errorf("sinks = %v", got)
	}
}

func TestShuffleEdgeSizeAndBytes(t *testing.T) {
	j := NewBuilder("sz").
		Stage("m", 250, Op(OpTableScan)).
		Stage("r", 400, Op(OpShuffleRead)).
		Pipeline("m", "r", 5000).
		MustBuild()
	e := j.Edges()[0]
	if got := j.ShuffleEdgeSize(e); got != 100000 {
		t.Errorf("shuffle edge size = %d, want 100000", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	j := NewBuilder("cl").
		Stage("a", 1, Op(OpTableScan)).Stage("b", 2).
		Barrier("a", "b", 10).
		MustBuild()
	c := j.Clone()
	c.Stage("a").Tasks = 99
	c.Edges()[0].Bytes = 42
	c.Stage("a").Operators[0].Kind = OpFilter
	if j.Stage("a").Tasks != 1 {
		t.Error("clone shares stage structs")
	}
	if j.Edges()[0].Bytes != 10 {
		t.Error("clone shares edge structs")
	}
	if j.Stage("a").Operators[0].Kind != OpTableScan {
		t.Error("clone shares operator slices")
	}
	if c.NumStages() != j.NumStages() || c.NumTasks() == j.NumTasks() {
		t.Error("clone structure wrong")
	}
}

func TestGlobalSortOperators(t *testing.T) {
	want := map[OperatorKind]bool{
		OpStreamedAggregate: true, OpMergeJoin: true, OpWindow: true,
		OpSortBy: true, OpMergeSort: true,
		OpTableScan: false, OpShuffleRead: false, OpHashJoin: false,
		OpFilter: false, OpHashAggregate: false, OpLimit: false,
	}
	for k, w := range want {
		if k.GlobalSort() != w {
			t.Errorf("%v.GlobalSort() = %v, want %v", k, !w, w)
		}
	}
}

func TestOperatorStrings(t *testing.T) {
	if OpMergeSort.String() != "MergeSort" {
		t.Errorf("OpMergeSort.String() = %q", OpMergeSort.String())
	}
	if OperatorKind(999).String() != "Invalid" {
		t.Errorf("invalid kind string = %q", OperatorKind(999).String())
	}
}

func TestJobString(t *testing.T) {
	j := NewBuilder("str").
		Stage("a", 1, Op(OpTableScan)).Stage("b", 1).
		Barrier("a", "b", 7).
		MustBuild()
	s := j.String()
	for _, want := range []string{"job str", "a x1", "TableScan", "a -> b", "barrier", "7 bytes"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}

func TestBuilderErrorPropagation(t *testing.T) {
	_, err := NewBuilder("bad").Stage("a", 1).Pipeline("a", "missing", 0).Build()
	if err == nil {
		t.Error("builder swallowed edge error")
	}
	_, err = NewBuilder("bad2").Stage("a", 0).Build()
	if err == nil {
		t.Error("builder swallowed stage error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on invalid job")
		}
	}()
	NewBuilder("bad3").MustBuild()
}

func mustStage(t *testing.T, j *Job, name string, tasks int) {
	t.Helper()
	if err := j.AddStage(&Stage{Name: name, Tasks: tasks}); err != nil {
		t.Fatal(err)
	}
}
