// TPC-H example: the published Q9 physical plan (Fig. 4) end to end. The
// plan is partitioned into graphlets and run on the simulated 100-node
// cluster under Swift and the Spark baseline — the per-query slice of
// Fig. 9(a). It exits non-zero if the plan's shape drifts from Fig. 4 or
// Swift stops beating Spark on it.
package main

import (
	"fmt"
	"log"

	"swift/internal/baseline"
	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/graphlet"
	"swift/internal/simrun"
	"swift/internal/tpch"
)

func main() {
	q9 := tpch.Q9()
	gs, err := graphlet.Partition(q9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published Q9 plan: %d stages, %d tasks, %d graphlets\n", q9.NumStages(), q9.NumTasks(), len(gs))
	for _, g := range gs {
		fmt.Printf("  %s\n", g)
	}
	if q9.NumStages() != 12 || q9.NumTasks() != 2559 || len(gs) != 4 {
		log.Fatal("Q9 no longer has Fig. 4's 12 stages, 2,559 tasks and 4 graphlets")
	}

	sw := run(q9.Clone(), baseline.Swift())
	sp := run(q9.Clone(), baseline.Spark())
	fmt.Printf("\n%10s %10s %8s\n%10.1f %10.1f %8.2f\n", "swift_s", "spark_s", "speedup", sw, sp, sp/sw)
	if sw >= sp {
		log.Fatal("Swift does not beat Spark on Q9")
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
