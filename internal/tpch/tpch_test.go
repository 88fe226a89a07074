package tpch

import (
	"fmt"
	"reflect"
	"testing"

	"swift/internal/dag"
	"swift/internal/graphlet"
	"swift/internal/shuffle"
)

func TestQ9MatchesPaperStructure(t *testing.T) {
	j := Q9()
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	// Published task counts (Fig. 4a).
	want := map[string]int{"M1": 956, "M2": 220, "M3": 3, "M5": 403, "M7": 220, "M8": 20}
	for s, n := range want {
		if got := j.Stage(s).Tasks; got != n {
			t.Errorf("%s tasks = %d, want %d", s, got, n)
		}
	}
	// Barrier edges J4->J6, J6->J10, J10->R11; everything else pipeline.
	barriers := map[string]bool{"J4->J6": true, "J6->J10": true, "J10->R11": true}
	for _, e := range j.Edges() {
		key := e.From + "->" + e.To
		if (e.Mode == dag.Barrier) != barriers[key] {
			t.Errorf("edge %s mode = %v", key, e.Mode)
		}
	}
	// Exactly the paper's four graphlets.
	gs, err := graphlet.Partition(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 4 {
		t.Fatalf("graphlets = %d, want 4", len(gs))
	}
	wantG := [][]string{
		{"M1", "M2", "M3", "J4"},
		{"M5", "J6"},
		{"M7", "M8", "R9", "J10"},
		{"R11", "R12"},
	}
	for i, g := range gs {
		got := append([]string(nil), g.Stages...)
		if !sameSet(got, wantG[i]) {
			t.Errorf("graphlet %d = %v, want %v", i+1, got, wantG[i])
		}
	}
	if gs[0].Trigger != "J4" || gs[1].Trigger != "J6" || gs[2].Trigger != "J10" {
		t.Errorf("triggers = %q %q %q", gs[0].Trigger, gs[1].Trigger, gs[2].Trigger)
	}
}

func TestQ13MatchesPaperStructure(t *testing.T) {
	j := Q13()
	want := map[string]int{"M1": 498, "M2": 72}
	for s, n := range want {
		if got := j.Stage(s).Tasks; got != n {
			t.Errorf("%s tasks = %d, want %d", s, got, n)
		}
	}
	det := Q13Details()
	if len(det) != 6 || det[0].RecordsPerTask != 3012048 || det[2].InputSizePerTask != "26MB" {
		t.Errorf("details = %+v", det)
	}
	names := make([]string, 0)
	for _, d := range det {
		names = append(names, d.Stage)
	}
	if !reflect.DeepEqual(names, []string{"M1", "M2", "J3", "R4", "R5", "R6"}) {
		t.Errorf("detail stages = %v", names)
	}
}

func TestAllQueriesValid(t *testing.T) {
	for n := 1; n <= 22; n++ {
		name, j := fmt.Sprintf("Q%d", n), Query(n)
		if err := j.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		gs, err := graphlet.Partition(j)
		if err != nil {
			t.Errorf("%s: partition: %v", name, err)
			continue
		}
		if _, err := graphlet.SubmissionOrder(gs); err != nil {
			t.Errorf("%s: order: %v", name, err)
		}
		// Every query ends in a single-task sink.
		sinks := j.Sinks()
		if len(sinks) != 1 || j.Stage(sinks[0]).Tasks != 1 {
			t.Errorf("%s: sinks = %v", name, sinks)
		}
		// Scan stages carry bytes; their parallelism follows 200 MB/task.
		for _, s := range j.Stages() {
			for _, op := range s.Operators {
				if op.Kind == dag.OpTableScan && s.Cost.ScanBytes <= 0 {
					t.Errorf("%s/%s: scan without bytes", name, s.Name)
				}
			}
		}
	}
}

func TestTerasortShape(t *testing.T) {
	j := Terasort(250, 250)
	if j.NumTasks() != 500 {
		t.Errorf("tasks = %d", j.NumTasks())
	}
	e := j.Edges()[0]
	if e.Mode != dag.Barrier {
		t.Error("terasort shuffle should be a barrier")
	}
	if e.Bytes != int64(250)*200<<20 {
		t.Errorf("shuffle bytes = %d", e.Bytes)
	}
	gs, err := graphlet.Partition(j)
	if err != nil || len(gs) != 2 {
		t.Fatalf("graphlets = %v err=%v", gs, err)
	}
	// Adaptive mode selection per Table I sizes.
	th := shuffle.DefaultThresholds()
	if th.Select(250*250) != shuffle.Remote {
		t.Error("250x250 should select Remote")
	}
	if th.Select(1500*1500) != shuffle.Local {
		t.Error("1500x1500 should select Local")
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid terasort size did not panic")
		}
	}()
	Terasort(0, 5)
}

func TestQueryPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Query(23) did not panic")
		}
	}()
	Query(23)
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]bool{}
	for _, s := range a {
		m[s] = true
	}
	for _, s := range b {
		if !m[s] {
			return false
		}
	}
	return true
}
