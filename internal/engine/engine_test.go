package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"swift/internal/dag"
)

// wordcountJob builds a 2-stage scan→aggregate job over the "words" table.
func wordcountJob(id string, scanTasks, aggTasks int) (*dag.Job, Plans) {
	job := dag.NewBuilder(id).
		Stage("scan", scanTasks, dag.Op(dag.OpTableScan), dag.Op(dag.OpShuffleWrite)).
		Stage("count", aggTasks, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpHashAggregate), dag.Op(dag.OpAdhocSink)).
		Pipeline("scan", "count", 1<<20).
		MustBuild()
	plans := Plans{
		"scan": func(ctx *TaskContext) error {
			b, err := ctx.TablePartitionBatch("words")
			if err != nil {
				return err
			}
			return ctx.EmitBatchByKey("count", b, []int{0})
		},
		"count": func(ctx *TaskContext) error {
			b, err := ctx.InputBatch("scan")
			if err != nil {
				return err
			}
			ctx.SinkBatch(HashAggregateBatch(b, []int{0}, []Agg{{AggCount, 0}}))
			return nil
		},
	}
	return job, plans
}

func wordsTable(n, scanTasks int) (*Table, map[string]int64) {
	words := []string{"swift", "graphlet", "shuffle", "cache", "worker"}
	rng := rand.New(rand.NewSource(7))
	rows := make([]Row, n)
	want := map[string]int64{}
	for i := range rows {
		w := words[rng.Intn(len(words))]
		rows[i] = Row{w}
		want[w]++
	}
	return NewTable("words", Schema{"word"}, rows, scanTasks), want
}

func counts(rows []Row) map[string]int64 {
	out := map[string]int64{}
	for _, r := range rows {
		out[r[0].(string)] += r[1].(int64)
	}
	return out
}

func TestWordcountEndToEnd(t *testing.T) {
	// The second case scans wider than the table: tasks past the last
	// partition read a zero-row batch with the table's layout.
	for _, tc := range []struct{ parts, scanTasks int }{{6, 6}, {2, 5}} {
		e := New(DefaultConfig())
		t.Cleanup(e.Close)
		table, want := wordsTable(5000, tc.parts)
		e.RegisterTable(table)
		job, plans := wordcountJob("wc", tc.scanTasks, 3)
		rows, err := e.Run(job, plans)
		if err != nil {
			t.Fatal(err)
		}
		if got := counts(rows); !reflect.DeepEqual(got, want) {
			t.Errorf("counts = %v, want %v", got, want)
		}
		if e.cl.BusyExecutors() != 0 {
			t.Error("executors leaked")
		}
		if st := e.Store().Stats(); st.Puts == 0 {
			t.Error("no shuffle segments written")
		}
	}
}

func TestSortJobProducesGloballySortedOutput(t *testing.T) {
	// Terasort in miniature: scan+local sort, range partition, and per
	// reducer a stable sort of the producer-ordered runs (their k-way merge).
	e := New(DefaultConfig())
	defer e.Close()
	rng := rand.New(rand.NewSource(3))
	n := 4000
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{int64(rng.Intn(1000000))}
	}
	e.RegisterTable(NewTable("records", Schema{"key"}, rows, 5))

	reducers := 4
	bounds := []Row{{int64(250000)}, {int64(500000)}, {int64(750000)}}
	job := dag.NewBuilder("tsort").
		StageOpt(&dag.Stage{Name: "map", Tasks: 5, Idempotent: true,
			Operators: []dag.Operator{dag.Op(dag.OpTableScan), dag.Op(dag.OpMergeSort), dag.Op(dag.OpShuffleWrite)}}).
		StageOpt(&dag.Stage{Name: "reduce", Tasks: reducers, Idempotent: true,
			Operators: []dag.Operator{dag.Op(dag.OpShuffleRead), dag.Op(dag.OpMergeSort), dag.Op(dag.OpAdhocSink)}}).
		Barrier("map", "reduce", 1<<20).
		MustBuild()
	plans := Plans{
		"map": func(ctx *TaskContext) error {
			b, err := ctx.TablePartitionBatch("records")
			if err != nil {
				return err
			}
			return ctx.EmitBatchByRange("reduce", SortBatch(b, []int{0}), []int{0}, bounds)
		},
		"reduce": func(ctx *TaskContext) error {
			runs, err := ctx.InputBatchRuns("map")
			if err != nil {
				return err
			}
			if len(runs) != 5 {
				return fmt.Errorf("reduce read %d runs, want one per map task", len(runs))
			}
			merged := SortBatch(ConcatBatches(runs), []int{0})
			// Tag with the reducer index so global order is checkable.
			tag := make([]int64, merged.Len)
			for i := range tag {
				tag[i] = int64(ctx.Index())
			}
			ctx.SinkBatch(NewBatch(Int64Col(tag), merged.Cols[0]))
			return nil
		},
	}
	rowsOut, err := e.Run(job, plans)
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsOut) != n {
		t.Fatalf("row count = %d, want %d", len(rowsOut), n)
	}
	// Global order: sort by (reducer, position preserved) — verify within
	// each reducer ascending and across reducers bounded.
	SortRows(rowsOut, []int{0, 1})
	prev := int64(-1)
	for _, r := range rowsOut {
		v := r[1].(int64)
		if v < prev {
			t.Fatal("output not globally sorted")
		}
		prev = v
	}
}

func TestJoinJobEndToEnd(t *testing.T) {
	e := New(DefaultConfig())
	defer e.Close()
	var orders, customers []Row
	for i := 0; i < 300; i++ {
		orders = append(orders, Row{int64(i % 50), float64(i)})
	}
	for c := 0; c < 50; c++ {
		customers = append(customers, Row{int64(c), fmt.Sprintf("cust-%d", c)})
	}
	e.RegisterTable(NewTable("orders", Schema{"cust", "amount"}, orders, 4))
	e.RegisterTable(NewTable("customers", Schema{"cust", "name"}, customers, 2))

	job := dag.NewBuilder("join").
		Stage("o", 4, dag.Op(dag.OpTableScan), dag.Op(dag.OpShuffleWrite)).
		Stage("c", 2, dag.Op(dag.OpTableScan), dag.Op(dag.OpShuffleWrite)).
		Stage("j", 3, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpHashJoin), dag.Op(dag.OpAdhocSink)).
		Pipeline("o", "j", 1<<20).
		Pipeline("c", "j", 1<<20).
		MustBuild()
	plans := Plans{
		"o": scanByKey("orders", "j"),
		"c": scanByKey("customers", "j"),
		"j": joinSink("c", "o"),
	}
	rows, err := e.Run(job, plans)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 300 {
		t.Fatalf("join produced %d rows, want 300", len(rows))
	}
	for _, r := range rows {
		if r[0] != r[2] {
			t.Fatalf("bad join row %v", r)
		}
	}
}

// scanByKey is a scan stage that hash-partitions its table partition on
// column 0 to the consumer stage; joinSink hash-joins the two in-edges on
// column 0 (probe columns first) and sinks the result.
func scanByKey(table, to string) StageFn {
	return func(ctx *TaskContext) error {
		b, err := ctx.TablePartitionBatch(table)
		if err != nil {
			return err
		}
		return ctx.EmitBatchByKey(to, b, []int{0})
	}
}

func joinSink(build, probe string) StageFn {
	return func(ctx *TaskContext) error {
		left, err := ctx.InputBatch(probe)
		if err != nil {
			return err
		}
		right, err := ctx.InputBatch(build)
		if err != nil {
			return err
		}
		ctx.SinkBatch(HashJoinBatch(right, []int{0}, left, []int{0}))
		return nil
	}
}

// TestEmitByKeyMixedNumericJoin is the regression test for numeric key
// normalization in the hash: an int64 key column shuffled through
// EmitBatchByKey must co-locate with the equal float64 keys of the other
// side, or the distributed join silently drops matches (the pre-rewrite
// Hash formatted floats via fmt and partitioned int64(3) away from
// float64(3)).
func TestEmitByKeyMixedNumericJoin(t *testing.T) {
	e := New(DefaultConfig())
	defer e.Close()
	const keys = 60
	var ints, floats []Row
	for i := 0; i < keys; i++ {
		ints = append(ints, Row{int64(i), fmt.Sprintf("int-%d", i)})
		floats = append(floats, Row{float64(i), fmt.Sprintf("float-%d", i)})
	}
	e.RegisterTable(NewTable("ints", Schema{"k", "tag"}, ints, 3))
	e.RegisterTable(NewTable("floats", Schema{"k", "tag"}, floats, 3))

	job := dag.NewBuilder("mixed-join").
		Stage("a", 3, dag.Op(dag.OpTableScan), dag.Op(dag.OpShuffleWrite)).
		Stage("b", 3, dag.Op(dag.OpTableScan), dag.Op(dag.OpShuffleWrite)).
		Stage("j", 5, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpHashJoin), dag.Op(dag.OpAdhocSink)).
		Pipeline("a", "j", 1<<20).
		Pipeline("b", "j", 1<<20).
		MustBuild()
	plans := Plans{
		"a": scanByKey("ints", "j"),
		"b": scanByKey("floats", "j"),
		"j": joinSink("b", "a"),
	}
	rows, err := e.Run(job, plans)
	if err != nil {
		t.Fatal(err)
	}
	// Every int64 key must find its float64 twin despite the kind split.
	if len(rows) != keys {
		t.Fatalf("mixed-kind join produced %d rows, want %d", len(rows), keys)
	}
	for _, r := range rows {
		if Compare(r[0], r[2]) != 0 {
			t.Fatalf("joined unequal keys: %v", r)
		}
	}
}

func TestRecoveryPreservesExactResults(t *testing.T) {
	e := New(DefaultConfig())
	defer e.Close()
	table, want := wordsTable(20000, 8)
	e.RegisterTable(table)
	job, plans := wordcountJob("wc-f", 8, 4)

	// Slow the aggregation slightly so the injection lands mid-flight.
	orig := plans["count"]
	plans["count"] = func(ctx *TaskContext) error {
		time.Sleep(20 * time.Millisecond)
		return orig(ctx)
	}
	wait, err := e.Submit(job, plans)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for !e.FailTask("wc-f", "count") {
		select {
		case <-deadline:
			t.Fatal("never found a running count task to kill")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	rows, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := counts(rows); !reflect.DeepEqual(got, want) {
		t.Errorf("post-recovery counts = %v, want %v", got, want)
	}
}

func TestAppErrorFailsJobWithoutRetry(t *testing.T) {
	e := New(DefaultConfig())
	defer e.Close()
	table, _ := wordsTable(100, 2)
	e.RegisterTable(table)
	job, plans := wordcountJob("wc-app", 2, 1)
	plans["scan"] = func(ctx *TaskContext) error {
		if _, err := ctx.TablePartitionBatch("missing_table"); err != nil {
			return err
		}
		return nil
	}
	_, err := e.Run(job, plans)
	if err == nil {
		t.Fatal("job should fail")
	}
}

// TestFailedJobDropsLateSegments: when a job fails, its tasks still running
// are aborted but keep running. A shuffle write one of them makes after Run
// returned must be refused: it would land after the job's DropJob, and its
// bytes would stay in the store for the engine's lifetime.
func TestFailedJobDropsLateSegments(t *testing.T) {
	e := New(DefaultConfig())
	defer e.Close()
	job := dag.NewBuilder("late").
		Stage("a", 2, dag.Op(dag.OpTableScan), dag.Op(dag.OpShuffleWrite)).
		Stage("b", 1, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpAdhocSink)).
		Pipeline("a", "b", 1<<20).
		MustBuild()
	release, emitted := make(chan struct{}), make(chan error, 1)
	plans := Plans{
		"a": func(ctx *TaskContext) error {
			if ctx.Index() == 0 {
				return &AppError{Msg: "fails the job"}
			}
			<-release
			err := ctx.EmitBatchByKey("b", NewBatch(Int64Col([]int64{1})), []int{0})
			emitted <- err
			return err
		},
		"b": func(ctx *TaskContext) error {
			_, err := ctx.InputBatch("a")
			return err
		},
	}
	if _, err := e.Run(job, plans); err == nil {
		t.Fatal("job should fail")
	}
	close(release)
	select {
	case err := <-emitted:
		if err == nil {
			t.Error("an aborted attempt's shuffle write was accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("task a[1] never emitted")
	}
	if used := e.Store().Stats().UsedBytes; used != 0 {
		t.Fatalf("UsedBytes = %d after the failed job, want 0", used)
	}
}

// TestKindMixedTableFailsJob: a table column that holds two kinds is outside
// the engine's value domain. Converting the partition panics, the scan task
// fails, and Run returns an error once its retries run out.
func TestKindMixedTableFailsJob(t *testing.T) {
	e := New(DefaultConfig())
	defer e.Close()
	e.RegisterTable(NewTable("words", Schema{"word"}, []Row{{"swift"}, {int64(7)}}, 1))
	job, plans := wordcountJob("wc-mixed", 1, 1)
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(job, plans)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a job over a kind-mixed column succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked after 10s on a kind-mixed column")
	}
}

func TestPanicBecomesTaskFailureThenRecovers(t *testing.T) {
	e := New(DefaultConfig())
	defer e.Close()
	table, want := wordsTable(1000, 3)
	e.RegisterTable(table)
	job, plans := wordcountJob("wc-p", 3, 2)
	panicked := false
	orig := plans["count"]
	plans["count"] = func(ctx *TaskContext) error {
		if ctx.Index() == 0 && !panicked {
			panicked = true
			panic("boom")
		}
		return orig(ctx)
	}
	rows, err := e.Run(job, plans)
	if err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("panic never triggered")
	}
	if got := counts(rows); !reflect.DeepEqual(got, want) {
		t.Errorf("counts after panic recovery = %v", got)
	}
}

func TestConcurrentJobs(t *testing.T) {
	e := New(Config{Machines: 4, ExecutorsPerMachine: 6})
	defer e.Close()
	table, want := wordsTable(3000, 4)
	e.RegisterTable(table)
	type result struct {
		rows []Row
		err  error
	}
	waits := make([]func() ([]Row, error), 5)
	for i := range waits {
		job, plans := wordcountJob(fmt.Sprintf("wc-%d", i), 4, 2)
		w, err := e.Submit(job, plans)
		if err != nil {
			t.Fatal(err)
		}
		waits[i] = w
	}
	for i, w := range waits {
		rows, err := w()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if got := counts(rows); !reflect.DeepEqual(got, want) {
			t.Errorf("job %d counts wrong", i)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	e := New(DefaultConfig())
	defer e.Close()
	job, plans := wordcountJob("v", 1, 1)
	delete(plans, "count")
	if _, err := e.Submit(job, plans); err == nil {
		t.Error("missing plan accepted")
	}
	table, _ := wordsTable(10, 1)
	e.RegisterTable(table)
	job2, plans2 := wordcountJob("v", 1, 1)
	if _, err := e.Submit(job2, plans2); err != nil {
		t.Fatal(err)
	}
	job3, plans3 := wordcountJob("v", 1, 1)
	if _, err := e.Submit(job3, plans3); err == nil {
		t.Error("duplicate job accepted")
	}
}

func TestStoreBlockingAndDrop(t *testing.T) {
	s := NewStore(2, 0)
	done := make(chan *Batch, 1)
	go func() {
		b, ok := s.GetBatch("k", nil)
		if ok {
			done <- b
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if err := s.PutBatch("j", 0, "k", NewBatch(Int64Col([]int64{1}))); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-done:
		if b.Len != 1 {
			t.Errorf("rows = %v", b.Rows())
		}
	case <-time.After(time.Second):
		t.Fatal("blocked reader never woke")
	}
	// Aborted waits return !ok.
	aborted := func() bool { return true }
	if _, ok := s.GetBatch("absent", aborted); ok {
		t.Error("aborted get succeeded")
	}
	// Re-put replaces (recovery path).
	if err := s.PutBatch("j", 1, "k", NewBatch(Int64Col([]int64{2, 3}))); err != nil {
		t.Fatal(err)
	}
	b, ok := s.GetBatch("k", nil)
	if !ok || b.Len != 2 {
		t.Errorf("after re-put: %v %v", b.Rows(), ok)
	}
	s.DropJob("j")
	if _, ok := s.GetBatch("k", aborted); ok {
		t.Error("segment survived DropJob")
	}
}

// TestSubmitAfterCloseReturnsError: a closed engine refuses a job with an
// error instead of blocking the caller forever on a loop that is gone.
func TestSubmitAfterCloseReturnsError(t *testing.T) {
	e := New(DefaultConfig())
	table, _ := wordsTable(10, 1)
	e.RegisterTable(table)
	e.Close()
	errs := make(chan error, 2)
	go func() {
		job, plans := wordcountJob("closed-submit", 1, 1)
		_, err := e.Submit(job, plans)
		errs <- err
		job, plans = wordcountJob("closed-run", 1, 1)
		_, err = e.Run(job, plans)
		errs <- err
	}()
	for _, call := range []string{"Submit", "Run"} {
		select {
		case err := <-errs:
			if err == nil {
				t.Errorf("%s after Close succeeded", call)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s after Close still blocked after 2s", call)
		}
	}
}
