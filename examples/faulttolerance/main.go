// Fault-tolerance example: Section IV end to end. First the Fig. 14
// experiment on the simulator — failures injected into TPC-H Q13 at five
// points, comparing Swift's fine-grained recovery with whole-job restart —
// then a live kill on the real engine, showing the job still produces the
// exact answer.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"reflect"
	"time"

	"swift/internal/baseline"
	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/engine"
	"swift/internal/sim"
	"swift/internal/simrun"
	"swift/internal/tpch"
)

func main() {
	simulated()
	fmt.Println()
	live()
}

func simulated() {
	ccfg := cluster.Paper100()
	clean := run(ccfg, baseline.Swift(), "", 0)
	fmt.Printf("Q13 clean run: %.1fs (normalized to 100)\n", clean)
	fmt.Printf("%-10s %-6s %16s %18s\n", "inject_at", "stage", "swift_slowdown", "restart_slowdown")
	for _, inj := range []struct {
		pct   int
		stage string
	}{{20, "M2"}, {40, "J3"}, {60, "R4"}, {80, "R5"}, {100, "R6"}} {
		at := clean * float64(inj.pct) / 100 * 0.98
		sw := run(ccfg, baseline.Swift(), inj.stage, at)
		re := run(ccfg, baseline.JobRestart(baseline.Swift()), inj.stage, at)
		fmt.Printf("%-10d %-6s %15.1f%% %17.1f%%\n", inj.pct, inj.stage, (sw/clean-1)*100, (re/clean-1)*100)
	}
}

func run(ccfg cluster.Config, opts core.Options, failStage string, failAt float64) float64 {
	r := simrun.New(simrun.Config{Cluster: ccfg, Options: opts, Seed: 1})
	job := tpch.Q13()
	r.SubmitAt(0, job)
	if failStage != "" {
		r.InjectTaskFailureAt(sim.FromSeconds(failAt), job.ID, failStage, core.FailCrash)
	}
	res := r.Run()
	jr := res.Jobs[job.ID]
	if jr == nil || !jr.Completed {
		log.Fatal("Q13 did not complete")
	}
	return jr.Duration()
}

// live kills a running aggregation task on the real engine mid-job and
// verifies the recovered run's output is exact.
func live() {
	e := engine.New(engine.DefaultConfig())
	defer e.Close()
	words := []string{"alpha", "beta", "gamma", "delta"}
	rng := rand.New(rand.NewSource(5))
	rows := make([]engine.Row, 40000)
	want := map[string]int64{}
	for i := range rows {
		w := words[rng.Intn(len(words))]
		rows[i] = engine.Row{w}
		want[w]++
	}
	e.RegisterTable(engine.NewTable("words", engine.Schema{"word"}, rows, 6))

	job := dag.NewBuilder("live-ft").
		Stage("scan", 6, dag.Op(dag.OpTableScan), dag.Op(dag.OpShuffleWrite)).
		Stage("count", 3, dag.Op(dag.OpShuffleRead), dag.Op(dag.OpHashAggregate), dag.Op(dag.OpAdhocSink)).
		Pipeline("scan", "count", 1<<20).
		MustBuild()
	plans := engine.Plans{
		"scan": func(ctx *engine.TaskContext) error {
			part, err := ctx.TablePartitionBatch("words")
			if err != nil {
				return err
			}
			return ctx.EmitBatchByKey("count", part, []int{0})
		},
		"count": func(ctx *engine.TaskContext) error {
			time.Sleep(30 * time.Millisecond) // give the killer a window
			in, err := ctx.InputBatch("scan")
			if err != nil {
				return err
			}
			ctx.SinkBatch(engine.HashAggregateBatch(in, []int{0}, []engine.Agg{{Kind: engine.AggCount, Col: 0}}))
			return nil
		},
	}
	wait, err := e.Submit(job, plans)
	if err != nil {
		log.Fatal(err)
	}
	killed := false
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); {
		if e.FailTask("live-ft", "count") {
			killed = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	out, err := wait()
	if err != nil {
		log.Fatal(err)
	}
	got := map[string]int64{}
	for _, r := range out {
		got[r[0].(string)] += r[1].(int64)
	}
	if !reflect.DeepEqual(got, want) {
		log.Fatalf("wrong counts after recovery: %v != %v", got, want)
	}
	fmt.Printf("real engine: killed a running task = %v; recovered result exact ✓ (%v)\n", killed, got)
}
