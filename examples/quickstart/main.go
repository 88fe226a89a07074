// Quickstart: build a two-stage DAG job, let Swift partition and schedule
// it, and run it on the real in-process engine — a distributed word count
// in ~60 lines of application code.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"swift/internal/dag"
	"swift/internal/engine"
	"swift/internal/graphlet"
)

func main() {
	// 1. Start a local Swift deployment: 4 machines × 4 pre-launched
	// executors, production scheduling options.
	e := engine.New(engine.DefaultConfig())
	defer e.Close()

	// 2. Register a dataset: 100k words in 6 partitions.
	words := []string{"swift", "graphlet", "shuffle", "cache", "worker", "admin"}
	rng := rand.New(rand.NewSource(1))
	rows := make([]engine.Row, 100000)
	for i := range rows {
		rows[i] = engine.Row{words[rng.Intn(len(words))]}
	}
	e.RegisterTable(engine.NewTable("words", engine.Schema{"word"}, rows, 6))

	// 3. Describe the job as a DAG: scan -> count, pipelined shuffle.
	job := dag.NewBuilder("wordcount").
		Stage("scan", 6, dag.Op(dag.OpTableScan), dag.Op(dag.OpShuffleWrite)).
		Stage("count", 3, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpHashAggregate), dag.Op(dag.OpAdhocSink)).
		Pipeline("scan", "count", 1<<20).
		MustBuild()

	// Show what the scheduler will do with it.
	gs, _ := graphlet.Partition(job)
	fmt.Printf("job %s partitions into %d graphlet(s): %v\n", job.ID, len(gs), gs[0].Stages)

	// 4. Attach task bodies and run.
	plans := engine.Plans{
		"scan": func(ctx *engine.TaskContext) error {
			part, err := ctx.TablePartitionBatch("words")
			if err != nil {
				return err
			}
			return ctx.EmitBatchByKey("count", part, []int{0})
		},
		"count": func(ctx *engine.TaskContext) error {
			in, err := ctx.InputBatch("scan")
			if err != nil {
				return err
			}
			ctx.SinkBatch(engine.HashAggregateBatch(in, []int{0}, []engine.Agg{{Kind: engine.AggCount, Col: 0}}))
			return nil
		},
	}
	out, err := e.Run(job, plans)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("word counts:")
	var total int64
	for _, r := range out {
		fmt.Printf("  %-10s %d\n", r[0], r[1])
		total += r[1].(int64)
	}
	if len(out) != len(words) || total != int64(len(rows)) {
		log.Fatalf("counted %d words in %d groups, want %d in %d", total, len(out), len(rows), len(words))
	}
	st := e.Store().Stats()
	fmt.Printf("shuffle segments written: %d, read: %d\n", st.Puts, st.Gets)
}
