// Terasort example: the Table I workload at two scales. A miniature sort
// runs for real on the in-process engine (verifying global order), then
// the paper's job sizes run on the simulated 100-node cluster under Swift
// and Spark, reproducing the Table I speedup trend.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"swift/internal/baseline"
	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/engine"
	"swift/internal/shuffle"
	"swift/internal/simrun"
	"swift/internal/tpch"
)

func main() {
	realSort()
	fmt.Println()
	simulatedTableI()
}

// realSort sorts 50k random keys through a 6x4 map/reduce DAG on the real
// engine and verifies the output is globally ordered.
func realSort() {
	e := engine.New(engine.DefaultConfig())
	defer e.Close()
	const n = 50000
	rng := rand.New(rand.NewSource(2))
	rows := make([]engine.Row, n)
	for i := range rows {
		rows[i] = engine.Row{int64(rng.Intn(1 << 30))}
	}
	e.RegisterTable(engine.NewTable("records", engine.Schema{"key"}, rows, 6))

	reducers := 4
	bounds := make([]engine.Row, reducers-1)
	for i := range bounds {
		bounds[i] = engine.Row{int64((i + 1) * (1 << 30) / reducers)}
	}
	job := dag.NewBuilder("terasort-real").
		StageOpt(&dag.Stage{Name: "map", Tasks: 6, Idempotent: true,
			Operators: []dag.Operator{dag.Op(dag.OpTableScan), dag.Op(dag.OpMergeSort), dag.Op(dag.OpShuffleWrite)}}).
		StageOpt(&dag.Stage{Name: "reduce", Tasks: reducers, Idempotent: true,
			Operators: []dag.Operator{dag.Op(dag.OpShuffleRead), dag.Op(dag.OpMergeSort), dag.Op(dag.OpAdhocSink)}}).
		Barrier("map", "reduce", 1<<20).
		MustBuild()
	plans := engine.Plans{
		"map": func(ctx *engine.TaskContext) error {
			part, err := ctx.TablePartitionBatch("records")
			if err != nil {
				return err
			}
			return ctx.EmitBatchByRange("reduce", engine.SortBatch(part, []int{0}), []int{0}, bounds)
		},
		"reduce": func(ctx *engine.TaskContext) error {
			// The input is the map tasks' sorted runs in producer order; a
			// stable sort of that concatenation is their k-way merge.
			in, err := ctx.InputBatch("map")
			if err != nil {
				return err
			}
			ctx.SinkBatch(engine.SortBatch(in, []int{0}))
			return nil
		},
	}
	// Run returns sink rows by reducer index, each reducer's in its own
	// order, so the result is globally sorted iff it is sorted as returned.
	out, err := e.Run(job, plans)
	if err != nil {
		log.Fatal(err)
	}
	if len(out) != n {
		log.Fatalf("sorted %d of %d keys", len(out), n)
	}
	for i := 1; i < len(out); i++ {
		if out[i][0].(int64) < out[i-1][0].(int64) {
			log.Fatal("output not globally sorted")
		}
	}
	fmt.Printf("real engine: sorted %d keys across %d reducers — globally ordered ✓\n", len(out), reducers)
}

// simulatedTableI reproduces Table I on the simulated cluster.
func simulatedTableI() {
	fmt.Printf("Table I (simulated 100-node cluster; paper speedups 3.07/3.96/7.06/14.18):\n")
	fmt.Printf("%-12s %9s %9s %8s %8s\n", "job_size", "spark_s", "swift_s", "speedup", "mode")
	th := shuffle.DefaultThresholds()
	for _, s := range []int{250, 500, 1000, 1500} {
		sw := run(tpch.Terasort(s, s), baseline.Swift())
		sp := run(tpch.Terasort(s, s), baseline.Spark())
		fmt.Printf("%-12s %9.1f %9.1f %8.2f %8s\n",
			fmt.Sprintf("%dx%d", s, s), sp, sw, sp/sw, th.Select(s*s))
	}
}

func run(job *dag.Job, opts core.Options) float64 {
	r := simrun.New(simrun.Config{Cluster: cluster.Paper100(), Options: opts, Seed: 1})
	r.SubmitAt(0, job)
	res := r.Run()
	jr := res.Jobs[job.ID]
	if jr == nil || !jr.Completed {
		log.Fatalf("%s did not complete", job.ID)
	}
	return jr.Duration()
}
