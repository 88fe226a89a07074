package dag

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomJob builds a random DAG with edges always pointing from lower to
// higher stage index, guaranteeing acyclicity by construction.
func randomJob(r *rand.Rand) *Job {
	n := 1 + r.Intn(12)
	j := NewJob("rand")
	for i := 0; i < n; i++ {
		stage := &Stage{Name: fmt.Sprintf("s%d", i), Tasks: 1 + r.Intn(50), Idempotent: true}
		if r.Intn(4) == 0 {
			stage.Operators = append(stage.Operators, Op(OpMergeSort))
		}
		if err := j.AddStage(stage); err != nil {
			panic(err)
		}
	}
	for to := 1; to < n; to++ {
		for from := 0; from < to; from++ {
			if r.Intn(3) != 0 {
				continue
			}
			mode := Pipeline
			if r.Intn(3) == 0 {
				mode = Barrier
			}
			e := &Edge{From: fmt.Sprintf("s%d", from), To: fmt.Sprintf("s%d", to),
				Op: OpShuffleRead, Mode: mode, Bytes: r.Int63n(1 << 30)}
			if err := j.AddEdge(e); err != nil {
				panic(err)
			}
		}
	}
	j.Classify()
	return j
}

// TestTopoOrderProperty checks, over random DAGs, that TopoOrder returns a
// permutation of the stages in which every edge points forward.
func TestTopoOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		j := randomJob(rand.New(rand.NewSource(seed)))
		order, err := j.TopoOrder()
		if err != nil {
			return false
		}
		if len(order) != j.NumStages() {
			return false
		}
		pos := make(map[string]int, len(order))
		for i, s := range order {
			if _, dup := pos[s]; dup {
				return false
			}
			pos[s] = i
		}
		for _, e := range j.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// referenceTopoOrder is TopoOrder as it was written before the order was
// cached: Kahn's algorithm over name-keyed maps, re-sorting the ready set by
// insertion position before every pop. It is the oracle for the index-slice
// version.
func referenceTopoOrder(j *Job) ([]string, error) {
	names := j.StageNames()
	indeg := make(map[string]int, len(names))
	pos := make(map[string]int, len(names))
	for i, n := range names {
		indeg[n] = len(j.In(n))
		pos[n] = i
	}
	var ready []string
	for _, n := range names {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	var out []string
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool { return pos[ready[a]] < pos[ready[b]] })
		n := ready[0]
		ready = ready[1:]
		out = append(out, n)
		for _, e := range j.Out(n) {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	if len(out) != len(names) {
		return nil, fmt.Errorf("cycle")
	}
	return out, nil
}

// shuffledJob builds a random DAG whose insertion order is not a
// topological order: stages go in as a random permutation, edges point from
// lower to higher stage number in random order, and one job in four also
// gets a back edge, which may close a cycle.
func shuffledJob(r *rand.Rand) *Job {
	n := 1 + r.Intn(12)
	j := NewJob("shuffled")
	for _, i := range r.Perm(n) {
		if err := j.AddStage(&Stage{Name: fmt.Sprintf("s%d", i), Tasks: 1}); err != nil {
			panic(err)
		}
	}
	type pair struct{ from, to int }
	var pairs []pair
	for to := 1; to < n; to++ {
		for from := 0; from < to; from++ {
			if r.Intn(3) == 0 {
				pairs = append(pairs, pair{from, to})
			}
		}
	}
	if n > 1 && r.Intn(4) == 0 {
		from := 1 + r.Intn(n-1)
		pairs = append(pairs, pair{from, r.Intn(from)})
	}
	r.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	for _, p := range pairs {
		e := &Edge{From: fmt.Sprintf("s%d", p.from), To: fmt.Sprintf("s%d", p.to)}
		if err := j.AddEdge(e); err != nil {
			panic(err)
		}
	}
	return j
}

// TestTopoOrderMatchesReference checks, over random DAGs in both
// generators' shapes, that TopoOrder returns exactly the reference order,
// and errs exactly when the reference finds a cycle.
func TestTopoOrderMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, j := range []*Job{randomJob(r), shuffledJob(r)} {
			want, wantErr := referenceTopoOrder(j)
			got, err := j.TopoOrder()
			if (err != nil) != (wantErr != nil) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Logf("seed %d:\n%s got %v (%v), want %v (%v)", seed, j, got, err, want, wantErr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCloneProperty checks that a clone is structurally identical but
// storage-independent for random DAGs.
func TestCloneProperty(t *testing.T) {
	f := func(seed int64) bool {
		j := randomJob(rand.New(rand.NewSource(seed)))
		c := j.Clone()
		if c.NumStages() != j.NumStages() || len(c.Edges()) != len(j.Edges()) {
			return false
		}
		if c.String() != j.String() {
			return false
		}
		for _, s := range c.Stages() {
			s.Tasks++
		}
		return c.NumTasks() == j.NumTasks()+j.NumStages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestClassifyProperty checks the classification invariant on random DAGs:
// after Classify, every out-edge of a global-sort stage is a barrier, and no
// edge whose producer lacks global sort and whose op is streamable got
// promoted from an explicit Pipeline to Barrier spuriously... (explicit
// barriers set by the builder are preserved).
func TestClassifyProperty(t *testing.T) {
	f := func(seed int64) bool {
		j := randomJob(rand.New(rand.NewSource(seed)))
		for _, e := range j.Edges() {
			if j.Stage(e.From).HasGlobalSort() && e.Mode != Barrier {
				return false
			}
			if e.Op.GlobalSort() && e.Mode != Barrier {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
