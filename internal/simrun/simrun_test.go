package simrun

import (
	"testing"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/metrics"
	"swift/internal/shuffle"
	"swift/internal/sim"
)

func testCluster() cluster.Config {
	return cluster.Config{Machines: 10, ExecutorsPerMachine: 10, Model: cluster.DefaultModel()}
}

// twoPhase builds a scan -> sort -> reduce job with a barrier in the middle
// (two graphlets) and realistic cost annotations.
func twoPhase(id string, mapTasks, redTasks int) *dag.Job {
	return dag.NewBuilder(id).
		StageOpt(&dag.Stage{
			Name: "map", Tasks: mapTasks, Idempotent: true,
			Operators: []dag.Operator{dag.Op(dag.OpTableScan), dag.Op(dag.OpMergeSort), dag.Op(dag.OpShuffleWrite)},
			Cost:      dag.Cost{ScanBytes: int64(mapTasks) * 200 << 20, ProcessSecondsPerTask: 2},
		}).
		StageOpt(&dag.Stage{
			Name: "reduce", Tasks: redTasks, Idempotent: true,
			Operators: []dag.Operator{dag.Op(dag.OpShuffleRead), dag.Op(dag.OpAdhocSink)},
			Cost:      dag.Cost{ProcessSecondsPerTask: 1.5},
		}).
		Barrier("map", "reduce", int64(mapTasks)*100<<20).
		MustBuild()
}

// pipelined builds a two-stage single-graphlet job.
func pipelined(id string, aTasks, bTasks int) *dag.Job {
	return dag.NewBuilder(id).
		StageOpt(&dag.Stage{
			Name: "scan", Tasks: aTasks, Idempotent: true,
			Operators: []dag.Operator{dag.Op(dag.OpTableScan), dag.Op(dag.OpShuffleWrite)},
			Cost:      dag.Cost{ScanBytes: int64(aTasks) * 100 << 20, ProcessSecondsPerTask: 1},
		}).
		StageOpt(&dag.Stage{
			Name: "agg", Tasks: bTasks, Idempotent: true,
			Operators: []dag.Operator{dag.Op(dag.OpShuffleRead), dag.Op(dag.OpHashAggregate)},
			Cost:      dag.Cost{ProcessSecondsPerTask: 0.5},
		}).
		Pipeline("scan", "agg", int64(aTasks)*50<<20).
		MustBuild()
}

func swiftRunner(seed int64) *Runner {
	return New(Config{Cluster: testCluster(), Options: core.DefaultOptions(), Seed: seed})
}

func TestPipelineJobRuns(t *testing.T) {
	r := swiftRunner(1)
	job := pipelined("p", 8, 4)
	r.SubmitAt(0, job)
	res := r.Run()
	jr := res.Jobs["p"]
	if jr == nil || !jr.Completed || jr.Failed {
		t.Fatalf("job result: %+v", jr)
	}
	if jr.Duration() <= 0 {
		t.Error("non-positive duration")
	}
	if len(jr.Samples) != 12 {
		t.Errorf("samples = %d, want 12", len(jr.Samples))
	}
	if got := res.ExecSeries.Max(); got != 12 {
		t.Errorf("peak executors = %g, want 12 (single gang)", got)
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
	if r.Cluster().BusyExecutors() != 0 {
		t.Error("executors leaked")
	}
	if len(res.JobDurations()) != 1 {
		t.Error("JobDurations wrong")
	}
	// Phase records exist for both stages.
	if jr.Phases["scan"] == nil || jr.Phases["agg"] == nil {
		t.Fatal("missing phases")
	}
	if jr.Phases["scan"].ShuffleRead <= 0 {
		t.Error("scan stage should have a scan (read) phase")
	}
	if jr.Phases["scan"].ShuffleWrite <= 0 || jr.Phases["agg"].ShuffleRead <= 0 {
		t.Error("shuffle phases missing")
	}
}

func TestBarrierJobGraphletOrdering(t *testing.T) {
	r := swiftRunner(2)
	r.SubmitAt(0, twoPhase("b", 10, 5))
	res := r.Run()
	jr := res.Jobs["b"]
	if !jr.Completed {
		t.Fatal("job did not complete")
	}
	// Reduce tasks must start after every map task finished.
	var lastMapFinish, firstReduceStart sim.Time
	for _, s := range jr.Samples {
		if s.Ref.Stage == "map" && s.Finish > lastMapFinish {
			lastMapFinish = s.Finish
		}
	}
	firstReduceStart = jr.Finish
	for _, s := range jr.Samples {
		if s.Ref.Stage == "reduce" && s.Start < firstReduceStart {
			firstReduceStart = s.Start
		}
	}
	if firstReduceStart < lastMapFinish {
		t.Errorf("reduce started at %v before maps finished at %v", firstReduceStart, lastMapFinish)
	}
}

func TestGraphletIdleBeatsWholeJobGang(t *testing.T) {
	job := func() *dag.Job { return twoPhase("j", 20, 10) }

	swift := swiftRunner(3)
	swift.SubmitAt(0, job())
	swiftRes := swift.Run()

	gangOpts := core.DefaultOptions()
	gangOpts.Partition = core.WholeJobPartition
	gang := New(Config{Cluster: testCluster(), Options: gangOpts, Seed: 3})
	gang.SubmitAt(0, job())
	gangRes := gang.Run()

	idle := func(res *Results) float64 {
		var xs []float64
		for _, s := range res.Jobs["j"].Samples {
			xs = append(xs, s.IdleRatio())
		}
		return metrics.Mean(xs)
	}
	si, gi := idle(swiftRes), idle(gangRes)
	if si >= gi {
		t.Errorf("swift idle ratio %.3f not below gang %.3f", si, gi)
	}
	if gi < 0.1 {
		t.Errorf("gang idle ratio suspiciously low: %.3f", gi)
	}
}

func TestColdLaunchSlowsJob(t *testing.T) {
	sparkOpts := core.DefaultOptions()
	sparkOpts.Partition = core.PerStagePartition
	sparkOpts.Shuffle = core.FixedShuffle(shuffle.Disk)
	sparkOpts.ColdLaunch = true

	warm := swiftRunner(4)
	warm.SubmitAt(0, twoPhase("j", 10, 5))
	wres := warm.Run()

	cold := New(Config{Cluster: testCluster(), Options: sparkOpts, Seed: 4})
	cold.SubmitAt(0, twoPhase("j", 10, 5))
	cres := cold.Run()

	if !wres.Jobs["j"].Completed || !cres.Jobs["j"].Completed {
		t.Fatal("jobs did not complete")
	}
	if cres.Jobs["j"].Duration() <= wres.Jobs["j"].Duration() {
		t.Errorf("cold+disk %.2fs not slower than swift %.2fs",
			cres.Jobs["j"].Duration(), wres.Jobs["j"].Duration())
	}
}

func TestTaskFailureRecoveryDelaysButCompletes(t *testing.T) {
	clean := swiftRunner(5)
	clean.SubmitAt(0, twoPhase("j", 10, 5))
	cleanDur := clean.Run().Jobs["j"].Duration()

	faulty := swiftRunner(5)
	faulty.SubmitAt(0, twoPhase("j", 10, 5))
	faulty.InjectTaskFailureAt(sim.FromSeconds(cleanDur*0.5), "j", "reduce", core.FailCrash)
	fres := faulty.Run()
	if !fres.Jobs["j"].Completed {
		t.Fatal("job did not survive failure")
	}
	if fres.Jobs["j"].Duration() < cleanDur {
		t.Errorf("failure run %.2fs faster than clean %.2fs", fres.Jobs["j"].Duration(), cleanDur)
	}
}

func TestFineGrainedBeatsJobRestart(t *testing.T) {
	run := func(policy core.RecoveryPolicy) float64 {
		opts := core.DefaultOptions()
		opts.Recovery = policy
		r := New(Config{Cluster: testCluster(), Options: opts, Seed: 6})
		r.SubmitAt(0, twoPhase("j", 10, 5))
		// Inject mid-reduce (the clean run takes ~5.4s with maps
		// finishing ~3.6s) to maximise restart waste.
		r.InjectTaskFailureAt(sim.FromSeconds(4.5), "j", "reduce", core.FailCrash)
		res := r.Run()
		if !res.Jobs["j"].Completed {
			t.Fatal("job did not complete")
		}
		return res.Jobs["j"].Duration()
	}
	fine := run(core.FineGrained)
	restart := run(core.JobRestart)
	if fine >= restart {
		t.Errorf("fine-grained %.2fs not faster than restart %.2fs", fine, restart)
	}
}

func TestMachineFailureSurvived(t *testing.T) {
	r := swiftRunner(7)
	r.SubmitAt(0, twoPhase("j", 10, 5))
	r.Engine().At(sim.FromSeconds(2), func() { r.CrashMachine(0) })
	res := r.Run()
	if !res.Jobs["j"].Completed {
		t.Fatal("job did not survive machine failure")
	}
	if r.Cluster().Machine(0).Health != cluster.Failed {
		t.Error("machine not failed")
	}
}

func TestFailureOnCompletedStageOutputLoss(t *testing.T) {
	r := swiftRunner(8)
	r.SubmitAt(0, twoPhase("j", 4, 2))
	// Inject into "map" long after it finished but (likely) while reduce
	// still runs; the run must still complete either way.
	r.InjectTaskFailureAt(sim.FromSeconds(6), "j", "map", core.FailCrash)
	res := r.Run()
	if !res.Jobs["j"].Completed {
		t.Fatal("job did not complete")
	}
}

func TestAppErrorFailsJob(t *testing.T) {
	r := swiftRunner(9)
	r.SubmitAt(0, twoPhase("j", 4, 2))
	r.InjectTaskFailureAt(sim.FromSeconds(1), "j", "map", core.FailAppError)
	res := r.Run()
	jr := res.Jobs["j"]
	if jr.Completed || !jr.Failed {
		t.Fatalf("app error should fail the job: %+v", jr)
	}
	if r.Cluster().BusyExecutors() != 0 {
		t.Error("executors leaked after failure")
	}
}

// TestFinishedJobsLeaveTheRunner: a job's tables go at its terminal
// action, completed or failed, and only its result stays. A used id is
// refused, and a failure injected after its job ended still arrives as the
// loss report the controller ignores, at the time it always did.
func TestFinishedJobsLeaveTheRunner(t *testing.T) {
	r := swiftRunner(9)
	r.SubmitAt(0, twoPhase("done", 4, 2))
	r.SubmitAt(0, twoPhase("failed", 4, 2))
	r.InjectTaskFailureAt(sim.FromSeconds(1), "failed", "map", core.FailAppError)
	late := sim.FromSeconds(1000)
	r.InjectTaskFailureAt(late, "done", "map", core.FailCrash)
	res := r.Run()
	if !res.Jobs["done"].Completed || !res.Jobs["failed"].Failed {
		t.Fatalf("results: %+v, %+v", res.Jobs["done"], res.Jobs["failed"])
	}
	if len(r.jobs) != 0 {
		t.Errorf("%d finished jobs keep their tables", len(r.jobs))
	}
	if err := r.Submit(twoPhase("done", 1, 1)); err == nil {
		t.Error("a finished job's id was accepted again")
	}
	if want := late + selfReportDelay; res.Makespan != want {
		t.Errorf("makespan %v, want the late loss report's time %v", res.Makespan, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		r := swiftRunner(1234)
		r.SubmitAt(0, twoPhase("a", 8, 4))
		r.SubmitAt(sim.FromSeconds(1), pipelined("b", 6, 3))
		res := r.Run()
		return res.Jobs["a"].Duration() + res.Jobs["b"].Duration(), int64(res.Makespan)
	}
	d1, m1 := run()
	d2, m2 := run()
	if d1 != d2 || m1 != m2 {
		t.Errorf("non-deterministic: (%v,%v) vs (%v,%v)", d1, m1, d2, m2)
	}
}

func TestMultiJobSharing(t *testing.T) {
	r := swiftRunner(10)
	for i := 0; i < 5; i++ {
		r.SubmitAt(sim.FromSeconds(float64(i)*0.5), pipelined(jobName(i), 10, 5))
	}
	res := r.Run()
	for i := 0; i < 5; i++ {
		if !res.Jobs[jobName(i)].Completed {
			t.Errorf("job %d incomplete", i)
		}
	}
	if got := len(res.JobDurations()); got != 5 {
		t.Errorf("completed jobs = %d", got)
	}
}

func jobName(i int) string { return string(rune('a'+i)) + "-job" }

func TestIdleRatioClamps(t *testing.T) {
	s := TaskSample{Start: 100, DataArrive: 50, Finish: 200}
	if s.IdleRatio() != 0 {
		t.Error("negative idle not clamped")
	}
	s = TaskSample{Start: 100, DataArrive: 500, Finish: 200}
	if s.IdleRatio() != 1 {
		t.Error("over-1 idle not clamped")
	}
	s = TaskSample{Start: 100, DataArrive: 100, Finish: 100}
	if s.IdleRatio() != 0 {
		t.Error("zero-duration sample not handled")
	}
}

// The paper's heartbeat intervals scale with cluster size; pin the
// 200/1000-machine threshold boundaries (Section IV-A).
func TestHeartbeatThresholdBoundaries(t *testing.T) {
	cases := []struct {
		machines int
		want     sim.Duration
	}{
		{1, 5 * sim.Second},
		{199, 5 * sim.Second},
		{200, 5 * sim.Second},
		{201, 10 * sim.Second},
		{999, 10 * sim.Second},
		{1000, 10 * sim.Second},
		{1001, 15 * sim.Second},
		{2000, 15 * sim.Second},
	}
	for _, c := range cases {
		if got := heartbeatInterval(c.machines); got != c.want {
			t.Errorf("heartbeatInterval(%d) = %v, want %v", c.machines, got, c.want)
		}
	}
}
