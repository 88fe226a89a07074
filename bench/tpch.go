package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"swift/internal/dag"
	"swift/internal/engine"
	"swift/internal/shuffle"
	"swift/internal/tpch"
)

// Query arguments are those of internal/tpch/bench_test.go and the
// package's reference tests.
const (
	q1Cutoff  = "1998-09-02"
	q3Segment = "BUILDING"
	q3Date    = "1995-03-15"
	q3TopK    = 10
	rangeLo   = "1994-01-01"
	rangeHi   = "1995-01-01"
	tpchParts = 4
	tpchScale = 5.0 // ≈ 300k lineitems
	// passesPerIteration consecutive passes make one timed iteration, and a
	// query's latency sample is its mean over them. One pass allocates about
	// half the live heap, so every other Engine.Run overlaps a collection
	// and runs twice as long; single runs are bimodal and their median
	// flips between the modes from run to run.
	passesPerIteration = 5
)

var tpchQueries = []string{"q1", "q3", "q6", "q12"}

// tpchInstance is a generated TPC-H-lite database registered on a fresh
// engine.
type tpchInstance struct {
	db       *tpch.Lite
	eng      *engine.Engine
	priceCut float64 // Q12's priority threshold: the median order total
	seq      int     // job ids must be unique per engine
	checked  bool    // the first timed pass of an instance is compared with the references
}

func tpchSetup(seed int64, shrink int) (instance, error) {
	in := &tpchInstance{
		db:  tpch.GenerateLite(tpchScale/float64(shrink), seed, tpchParts),
		eng: engine.New(engine.DefaultConfig()),
	}
	for _, t := range in.db.Tables() {
		in.eng.RegisterTable(t)
	}
	var totals []float64
	col := tpch.LiteSchemas["orders"].MustCol("o_totalprice")
	for _, part := range in.db.Orders.Partitions {
		for _, r := range part {
			totals = append(totals, r[col].(float64))
		}
	}
	in.priceCut = median(totals)
	if _, _, err := in.pass(nil); err != nil { // warm-up
		in.eng.Close()
		return nil, err
	}
	return in, nil
}

func (in *tpchInstance) close() error {
	in.eng.Close()
	return nil
}

// build returns the job and plans of one query under a fresh job id.
func (in *tpchInstance) build(q string) (*dag.Job, engine.Plans) {
	var job *dag.Job
	var plans engine.Plans
	switch q {
	case "q1":
		job, plans = tpch.LiteQ1(tpchParts, 3, q1Cutoff)
	case "q3":
		job, plans = tpch.LiteQ3(tpchParts, 3, q3TopK, q3Segment, q3Date)
	case "q6":
		job, plans = tpch.LiteQ6(tpchParts, rangeLo, rangeHi)
	default:
		job, plans = tpch.LiteQ12(tpchParts, 3, rangeLo, rangeHi, in.priceCut)
	}
	in.seq++
	job.ID = fmt.Sprintf("%s-%d", q, in.seq)
	return job, plans
}

// pass runs the four queries one at a time and returns each one's rows and
// Engine.Run latency in milliseconds. With a recorder every query is a
// span and every task body a child span of it.
func (in *tpchInstance) pass(rec *recorder) (map[string][]engine.Row, map[string]float64, error) {
	rows := make(map[string][]engine.Row, len(tpchQueries))
	ms := make(map[string]float64, len(tpchQueries))
	for _, q := range tpchQueries {
		job, plans := in.build(q)
		qspan := -1
		if rec != nil {
			qspan = rec.begin("engine.query", job.ID, -1)
			for stage, fn := range plans {
				plans[stage] = func(ctx *engine.TaskContext) error {
					sp := rec.begin("engine.task/"+stage, job.ID, qspan)
					defer rec.end(sp)
					return fn(ctx)
				}
			}
		}
		t0 := time.Now()
		out, err := in.eng.Run(job, plans)
		ms[q] = time.Since(t0).Seconds() * 1e3
		if rec != nil {
			rec.end(qspan)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", job.ID, err)
		}
		rows[q] = out
	}
	return rows, ms, nil
}

func (in *tpchInstance) iterate(rec *recorder) (iteration, error) {
	it := iteration{latMS: make(map[string][]float64)}
	sums := make(map[string]float64, len(tpchQueries))
	t0 := time.Now()
	for p := 0; p < passesPerIteration; p++ {
		rows, ms, err := in.pass(rec)
		if err != nil {
			return iteration{}, err
		}
		for q, v := range ms {
			sums[q] += v
		}
		it.attempted += len(tpchQueries)
		if !in.checked {
			in.checked = true
			t1 := time.Now()
			it.problems = in.verify(rows)
			it.failed = len(it.problems)
			t0 = t0.Add(time.Since(t1)) // checking is not the engine's time
		}
	}
	it.wall = time.Since(t0).Seconds()
	for q, v := range sums {
		it.latMS[q] = []float64{v / passesPerIteration}
	}
	return it, nil
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
}

// verify compares each query's rows with the package's direct reference
// computation over the same tables, one problem per wrong query.
func (in *tpchInstance) verify(rows map[string][]engine.Row) []string {
	var problems []string
	bad := func(q, format string, args ...interface{}) {
		problems = append(problems, q+": "+fmt.Sprintf(format, args...))
	}

	want1 := tpch.LiteQ1Reference(in.db, q1Cutoff)
	if len(rows["q1"]) != len(want1) || len(want1) == 0 {
		bad("q1", "%d groups, reference has %d", len(rows["q1"]), len(want1))
	} else {
		for _, r := range rows["q1"] {
			w, ok := want1[[2]string{r[0].(string), r[1].(string)}]
			got := [4]float64{r[2].(float64), r[3].(float64), r[4].(float64), float64(r[5].(int64))}
			if !ok || !near(got[0], w[0]) || !near(got[1], w[1]) || !near(got[2], w[2]) || !near(got[3], w[3]) {
				bad("q1", "group %v/%v = %v, reference %v", r[0], r[1], got, w)
				break
			}
		}
	}

	want3 := tpch.LiteQ3Reference(in.db, q3Segment, q3Date)
	var revs []float64
	for _, rev := range want3 {
		revs = append(revs, rev)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(revs)))
	wantRows := q3TopK
	if len(revs) < wantRows {
		wantRows = len(revs)
	}
	if len(rows["q3"]) != wantRows || wantRows == 0 {
		bad("q3", "%d rows, reference has %d", len(rows["q3"]), wantRows)
	} else {
		for i, r := range rows["q3"] {
			if !near(r[1].(float64), revs[i]) {
				bad("q3", "rank %d revenue %v, reference %v", i, r[1], revs[i])
				break
			}
		}
	}

	want6 := tpch.LiteQ6Reference(in.db, rangeLo, rangeHi)
	if len(rows["q6"]) != 1 || want6 == 0 || !near(rows["q6"][0][0].(float64), want6) {
		bad("q6", "rows %v, reference %v", rows["q6"], want6)
	}

	want12 := tpch.LiteQ12Reference(in.db, rangeLo, rangeHi, in.priceCut)
	if len(rows["q12"]) != len(want12) || len(want12) == 0 {
		bad("q12", "%d groups, reference has %d", len(rows["q12"]), len(want12))
	} else {
		for _, r := range rows["q12"] {
			w, ok := want12[r[0].(string)]
			if !ok || r[1].(int64) != w[0] || r[2].(int64) != w[1] {
				bad("q12", "status %v = (%v,%v), reference %v", r[0], r[1], r[2], w)
				break
			}
		}
	}
	return problems
}

// tpchTraced makes the per-layer pass: untraced reference passes, traced
// passes with a span around every query and task body, then the codec, the
// shuffle store and the Cache Worker on their own with a lineitem partition.
func tpchTraced(seed int64, shrink int, rec *recorder) (map[string]float64, iteration, error) {
	const iterations = 2
	const passes = iterations * passesPerIteration
	v := make(map[string]float64)
	instI, err := tpchSetup(seed, shrink)
	if err != nil {
		return nil, iteration{}, err
	}
	in := instI.(*tpchInstance)
	defer in.eng.Close()

	var refWall []float64
	for i := 0; i < iterations; i++ {
		it, err := in.iterate(nil)
		if err != nil {
			return nil, iteration{}, err
		}
		refWall = append(refWall, it.wall)
	}

	in.checked = false
	total := iteration{latMS: make(map[string][]float64)}
	var tracedWall []float64
	var before, after runtime.MemStats
	putsBefore := in.eng.Store().Stats().Puts
	runtime.ReadMemStats(&before)
	for i := 0; i < iterations; i++ {
		it, err := in.iterate(rec)
		if err != nil {
			return nil, iteration{}, err
		}
		tracedWall = append(tracedWall, it.wall)
		total.attempted += it.attempted
		total.failed += it.failed
		total.problems = append(total.problems, it.problems...)
		for q, ms := range it.latMS {
			total.latMS[q] = append(total.latMS[q], ms...)
		}
	}
	runtime.ReadMemStats(&after)
	total.wall = median(tracedWall)

	v["bench.trace_overhead_frac"] = median(tracedWall)/median(refWall) - 1
	var sumMS float64
	for _, q := range tpchQueries {
		v["engine."+q+"_ms"] = median(total.latMS[q])
		sumMS += median(total.latMS[q])
	}
	// Q12 is the one query still written against the row API.
	v["engine.row_path_frac"] = median(total.latMS["q12"]) / sumMS
	var taskUS []float64
	var queries int
	for _, sp := range rec.spans {
		switch {
		case sp.name == "engine.query":
			queries++
		case sp.end >= 0:
			taskUS = append(taskUS, float64(sp.end-sp.start)/1e3)
		}
	}
	v["engine.tasks"] = float64(len(taskUS)) / passes
	v["engine.task_us_p50"] = median(taskUS)
	v["engine.task_us_p99"] = percentile(taskUS, 99)
	// A query's self time is what is left of Engine.Run once the union of
	// its task bodies is taken out: controller work, dispatch and waiting.
	v["engine.dispatch_ms_per_query"] = selfTimes(rec.spans)["engine.query"].Seconds() * 1e3 / float64(queries)
	v["engine.alloc_mb_per_pass"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / passes
	v["engine.mallocs_per_pass"] = float64(after.Mallocs-before.Mallocs) / passes
	v["engine.store_puts_per_pass"] = float64(in.eng.Store().Stats().Puts-putsBefore) / passes

	probeEngineData(in.db, v)
	return v, total, nil
}

// probeEngineData times the batch codec, engine.Store and the Cache Worker
// in isolation on the first lineitem partition.
func probeEngineData(db *tpch.Lite, v map[string]float64) {
	batch := engine.BatchFromRows(db.Lineitem.Partitions[0])
	rows := float64(batch.Len)
	const reps = 20

	var enc []byte
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		enc = engine.EncodeBatch(batch)
	}
	v["engine.encode_ns_per_row"] = float64(time.Since(t0).Nanoseconds()) / reps / rows
	kb := float64(len(enc)) / 1024
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := engine.DecodeBatch(enc); err != nil {
			return
		}
	}
	v["engine.decode_ns_per_row"] = float64(time.Since(t0).Nanoseconds()) / reps / rows

	store := engine.NewStore(4, 0)
	var put, get time.Duration
	for i := 0; i < reps; i++ {
		key := engine.SegmentKey("probe", "a", "b", i, 0)
		t0 = time.Now()
		if err := store.PutBatch("probe", i, key, batch); err != nil {
			return
		}
		put += time.Since(t0)
		t0 = time.Now()
		store.GetBatch(key, nil)
		get += time.Since(t0)
	}
	v["engine.store_put_ns_per_kb"] = float64(put.Nanoseconds()) / reps / kb
	v["engine.store_get_ns_per_kb"] = float64(get.Nanoseconds()) / reps / kb

	cw := shuffle.NewCacheWorker(0)
	payload := [][]byte{enc}
	put, get = 0, 0
	const cwReps = 2000
	for i := 0; i < cwReps; i++ {
		key := engine.SegmentKey("probe", "a", "b", i, 0)
		t0 = time.Now()
		if _, err := cw.Put(key, int64(len(enc)), payload, 1); err != nil {
			return
		}
		put += time.Since(t0)
		t0 = time.Now()
		cw.Get(key)
		get += time.Since(t0)
		cw.Consume(key)
	}
	v["shuffle.cw_put_ns_per_kb"] = float64(put.Nanoseconds()) / cwReps / kb
	v["shuffle.cw_get_ns_per_kb"] = float64(get.Nanoseconds()) / cwReps / kb
}
