package baseline

import (
	"fmt"
	"strings"
	"testing"

	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/graphlet"
	"swift/internal/shuffle"
)

// diamond builds a 4-stage DAG with one heavy and several light edges.
func diamond() *dag.Job {
	return dag.NewBuilder("d").
		Stage("a", 10).Stage("b", 10).Stage("c", 10).Stage("d", 4).
		Pipeline("a", "b", 1<<20).
		Pipeline("a", "c", 200<<20). // heavy edge
		Pipeline("b", "d", 1<<20).
		Pipeline("c", "d", 1<<20).
		MustBuild()
}

// gangUnits reports how many units a preset schedules the diamond as, and
// whether all (or none) of them are all-or-nothing gangs.
func gangUnits(t *testing.T, o core.Options) (units int, gang bool) {
	t.Helper()
	partition := o.Partition
	if partition == nil { // NewController's default
		partition = core.GraphletPartition
	}
	gs, err := partition(diamond())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gs {
		if g.Gang != gs[0].Gang {
			t.Errorf("mixed gang and wave units: %v", gs)
		}
	}
	return len(gs), gs[0].Gang
}

func TestPresetShapes(t *testing.T) {
	if n, gang := gangUnits(t, Spark()); !Spark().ColdLaunch || n != 4 || gang {
		t.Errorf("spark preset wrong: %d units, gang=%v", n, gang)
	}
	if n, gang := gangUnits(t, JetScope()); JetScope().ColdLaunch || n != 1 || !gang {
		t.Errorf("jetscope preset wrong: %d units, gang=%v", n, gang)
	}
	if n, gang := gangUnits(t, Swift()); Swift().ColdLaunch || Swift().Recovery != core.FineGrained || n != 1 || gang {
		t.Errorf("swift preset wrong: %d units, gang=%v", n, gang)
	}
	if o := JobRestart(Swift()); o.Recovery != core.JobRestart {
		t.Error("job-restart wrapper wrong")
	}
	if o := FixedShuffle(shuffle.Local); o.Shuffle(1, 1, false) != shuffle.Local {
		t.Error("fixed shuffle wrong")
	}
	// Shuffle policies of the presets.
	if Spark().Shuffle(5, 5, false) != shuffle.Disk {
		t.Error("spark should use disk shuffle")
	}
	bo := Bubble()
	if bo.Shuffle(5, 5, true) != shuffle.Disk || bo.Shuffle(5, 5, false) != shuffle.Direct {
		t.Error("bubble shuffle should be disk across, direct within")
	}
}

func TestBubblePartitionCutsHeavyEdges(t *testing.T) {
	gs, err := BubblePartition(1000, 50<<20)(diamond())
	if err != nil {
		t.Fatal(err)
	}
	find := func(s string) *graphlet.Graphlet { return graphlet.Find(gs, s) }
	if find("a") == nil || find("d") == nil {
		t.Fatal("stages missing from bubbles")
	}
	// The heavy a->c edge must be cut; a->b is pipelined together.
	if find("a") == find("c") {
		t.Error("heavy edge not cut")
	}
	if find("a") != find("b") {
		t.Error("light edge a->b should stay in one bubble")
	}
	// All stages covered exactly once.
	total := 0
	for _, g := range gs {
		total += len(g.Stages)
	}
	if total != 4 {
		t.Errorf("stage cover = %d", total)
	}
	if _, err := graphlet.SubmissionOrder(gs); err != nil {
		t.Errorf("bubble deps not schedulable: %v", err)
	}
}

func TestBubblePartitionRespectsTaskCap(t *testing.T) {
	j := dag.NewBuilder("caps").
		Stage("a", 300).Stage("b", 300).Stage("c", 300).
		Pipeline("a", "b", 1).Pipeline("b", "c", 1).
		MustBuild()
	gs, err := BubblePartition(512, 0)(j)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gs {
		if g.Tasks > 512 {
			t.Errorf("bubble exceeds cap: %d tasks", g.Tasks)
		}
	}
	if len(gs) < 2 {
		t.Errorf("cap did not split: %d bubbles", len(gs))
	}
}

func TestBubblePartitionAcyclicOnCrossDeps(t *testing.T) {
	// s0 -> s3 (light), s1 -> s2 (cut), s2 -> s3 (light): with naive
	// joining s3 could join s0's bubble while depending on the newer s2
	// bubble. The partition must stay schedulable regardless.
	j := dag.NewBuilder("x").
		Stage("s0", 5).Stage("s1", 5).Stage("s2", 5).Stage("s3", 5).
		Pipeline("s0", "s3", 1<<10).
		Pipeline("s1", "s2", 500<<20).
		Pipeline("s2", "s3", 1<<10).
		MustBuild()
	gs, err := BubblePartition(1000, 100<<20)(j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graphlet.SubmissionOrder(gs); err != nil {
		t.Fatalf("cyclic bubbles: %v", err)
	}
}

func TestBubblePartitionDefaultCap(t *testing.T) {
	gs, err := BubblePartition(0, 0)(diamond())
	if err != nil || len(gs) == 0 {
		t.Fatalf("default cap failed: %v", err)
	}
}

func TestSystemByName(t *testing.T) {
	// shape is what tells the presets apart: partition, launch, recovery
	// and the shuffle mode across and within a unit.
	shape := func(o core.Options) string {
		units, gang := gangUnits(t, o)
		across, within := "adaptive", "adaptive"
		if o.Shuffle != nil {
			across, within = o.Shuffle(5, 5, true).String(), o.Shuffle(5, 5, false).String()
		}
		return fmt.Sprint(units, gang, o.ColdLaunch, o.Recovery, across, within)
	}
	for _, p := range []struct {
		name string
		want core.Options
	}{{"swift", Swift()}, {"spark", Spark()}, {"jetscope", JetScope()}, {"bubble", Bubble()}} {
		for _, spelled := range []string{p.name, strings.ToUpper(p.name), strings.ToUpper(p.name[:1]) + p.name[1:]} {
			got, err := System(spelled)
			if err != nil {
				t.Fatalf("System(%q): %v", spelled, err)
			}
			if g, w := shape(got), shape(p.want); g != w {
				t.Errorf("System(%q) = %s, want %s", spelled, g, w)
			}
		}
	}
	for _, name := range []string{"", "flink", "swift "} {
		if _, err := System(name); err == nil {
			t.Errorf("System(%q) resolved; want an error", name)
		}
	}
}
