package simrun

import (
	"testing"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/sim"
)

// TestRecycledRecordIgnoresStaleFinish takes task 0 of a two-task job out
// from under its armed finish one second in, so that its relaunch gets the
// killed attempt's record back from the free list while the old finish
// event — or two of them, after a straggler re-arm — is still queued. The
// relaunch must complete at its own finish time, once; a stale event that
// completed the record's new occupant would end it at the wrong time.
func TestRecycledRecordIgnoresStaleFinish(t *testing.T) {
	var rearmed []sim.Time // straggler re-arms of the current case
	for _, tc := range []struct {
		name  string
		fault func(r *Runner, ref core.TaskRef)
	}{
		{"CrashTask", func(r *Runner, ref core.TaskRef) { r.CrashTask(ref, core.FailCrash) }},
		{"SlowTask then CrashTask", func(r *Runner, ref core.TaskRef) {
			r.SlowTask(ref, 3)
			rearmed = append(rearmed, r.task(ref).finishAt)
			r.CrashTask(ref, core.FailCrash)
		}},
		{"RestartExecutor", func(r *Runner, ref core.TaskRef) { r.RestartExecutor(r.task(ref).executor) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rearmed = nil
			r := New(Config{
				Cluster: cluster.Config{Machines: 1, ExecutorsPerMachine: 2, Model: cluster.DefaultModel()},
				Options: core.DefaultOptions(),
				Seed:    1,
			})
			job := dag.NewBuilder("j").
				StageOpt(&dag.Stage{Name: "A", Tasks: 2, Idempotent: true,
					Operators: []dag.Operator{dag.Op(dag.OpAdhocSink)},
					Cost:      dag.Cost{ProcessSecondsPerTask: 10}}).
				MustBuild()
			r.SubmitAt(0, job)
			ref := core.TaskRef{Job: "j", Stage: "A", Index: 0}
			var first *runningTask
			var stale []sim.Time
			r.Engine().At(sim.Second, func() {
				first = r.task(ref)
				stale = append(stale, first.finishAt)
				tc.fault(r, ref)
				stale = append(stale, rearmed...)
				if first.armSeq != 0 {
					t.Fatal("the killed attempt's record is still armed")
				}
			})
			// The relaunch as it was armed: the record is recycled again
			// once it finishes.
			var relaunched *runningTask
			var started, finishAt sim.Time
			var attempt int
			r.SetEventHook(func(sim.Time) {
				if rt := r.task(ref); rt != nil && rt.attempt > 1 && relaunched == nil {
					relaunched, started, finishAt, attempt = rt, rt.started, rt.finishAt, rt.attempt
				}
			})
			res := r.Run()
			if first == nil || relaunched == nil {
				t.Fatal("task 0 was never relaunched")
			}
			if relaunched != first {
				t.Fatal("the relaunch did not reuse the killed attempt's record")
			}
			for _, s := range stale {
				if s <= started {
					t.Fatalf("stale finish at %v fired before the relaunch at %v took the record", s, started)
				}
			}
			jr := res.Jobs["j"]
			if !jr.Completed {
				t.Fatal("job did not complete")
			}
			var zero []TaskSample
			for _, s := range jr.Samples {
				if s.Ref == ref {
					zero = append(zero, s)
				}
			}
			if len(zero) != 1 || zero[0].Attempt != attempt || zero[0].Finish != finishAt {
				t.Fatalf("task 0 samples %+v, want one of attempt %d finishing at %v", zero, attempt, finishAt)
			}
			if pts := res.ExecSeries.Points(); pts[len(pts)-1].V != 0 {
				t.Fatalf("running-executor series ends at %g", pts[len(pts)-1].V)
			}
		})
	}
}
