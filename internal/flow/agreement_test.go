package flow

import (
	"testing"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/metrics"
	"swift/internal/sim"
	"swift/internal/simrun"
	"swift/internal/trace"
)

// TestDaemonAgreesWithSimrun runs one trace twice on the same cluster:
// through simrun, and through the daemon's path — a Service whose sink
// puts each start on a DeadlineHeap at its price, under a fake clock. The
// arrivals are far enough apart that every job runs alone, so the two may
// differ only where the task models do on purpose: simrun jitters each
// attempt's process term by ±5 % and parks a pipelined consumer until its
// producer stage completes, while the daemon runs every task for exactly
// its price from its start. The test logs the daemon ÷ simrun latency
// ratio by job shape and holds each job to the band those two effects
// allow.
func TestDaemonAgreesWithSimrun(t *testing.T) {
	const gap = 1000 * sim.Second // longer than any job of the trace takes
	ccfg := cluster.Config{Machines: 100, ExecutorsPerMachine: 30}
	jobs := trace.Generate(trace.Spec{Jobs: 200, Seed: 1, RuntimeCap: 120}).Jobs

	r := simrun.New(simrun.Config{Cluster: ccfg, Options: core.DefaultOptions(), Seed: 1})
	for i, j := range jobs {
		r.SubmitAt(sim.Time(i)*gap, j.Job.Clone())
	}
	res := r.Run()

	var now sim.Time
	var due DeadlineHeap
	finished := make(map[string]sim.Time)
	sink := func(at sim.Time, acts []core.Action, secs []float64) {
		for i := range acts {
			switch acts[i].Kind {
			case core.ActStartTask:
				due.Push(at+sim.FromSeconds(secs[i]), CompletionOf(&acts[i]))
			case core.ActJobCompleted:
				finished[acts[i].Task.Job] = at
			default: // nothing else happens to a job running alone
			}
		}
	}
	svc := NewService(cluster.New(ccfg), core.DefaultOptions(), Config{}, func() sim.Time { return now }, sink)
	var batch [64]Completion
	runUntil := func(end sim.Time) {
		for at, ok := due.Next(); ok && at <= end; at, ok = due.Next() {
			now = at
			svc.TasksFinished(batch[:due.PopDue(at, batch[:])])
		}
	}
	for i, j := range jobs {
		runUntil(sim.Time(i) * gap)
		now = sim.Time(i) * gap
		if out, err := svc.Submit(j.Job.Clone()); err != nil || out.Decision != Admitted {
			t.Fatalf("submit %s: %+v, %v", j.Job.ID, out, err)
		}
	}
	runUntil(sim.Time(len(jobs)) * gap)

	// Jitter alone bounds a job that parks nothing to [1/1.05, 1/0.95]:
	// only the process term is jittered. Parking only lengthens simrun, by
	// at most the sum of the other stages on the job's longest path, so a
	// job d stages deep stays above 1/(1.05·d).
	var barrier, pipelined []float64
	for i, j := range jobs {
		id := j.Job.ID
		sr, end := res.Jobs[id], finished[id]
		if end == 0 || !sr.Completed {
			t.Fatalf("job %s: daemon finished at %v, simrun completed %v", id, end, sr.Completed)
		}
		submit := sim.Time(i) * gap
		if sr.Finish-submit >= gap || end-submit >= gap {
			t.Fatalf("job %s overlaps the next arrival: the runs are not job by job", id)
		}
		ratio := (end - submit).Seconds() / sr.Duration()
		lo, group := 1/1.05, &barrier
		if d, piped := shape(j.Job); piped {
			lo, group = 1/(1.05*float64(d)), &pipelined
		}
		*group = append(*group, ratio)
		if ratio < lo || ratio > 1/0.95 {
			t.Errorf("job %s: daemon/simrun %.3f outside [%.3f, %.3f]", id, ratio, lo, 1/0.95)
		}
	}
	for _, g := range []struct {
		name   string
		ratios []float64
	}{{"barrier-only", barrier}, {"pipelined", pipelined}} {
		q := func(p float64) float64 { return metrics.Quantile(g.ratios, p) }
		t.Logf("%-12s %3d jobs: daemon/simrun min %.3f p10 %.3f p50 %.3f p90 %.3f max %.3f",
			g.name, len(g.ratios), q(0), q(0.1), q(0.5), q(0.9), q(1))
	}
}

// shape returns the number of stages on the job's longest path and
// whether any of its edges streams.
func shape(j *dag.Job) (depth int, piped bool) {
	names, _ := j.TopoOrder()
	d := make([]int, len(names))
	for i, name := range names {
		for _, e := range j.In(name) {
			d[i] = max(d[i], d[j.TopoIndex(e.From)])
			piped = piped || e.Mode == dag.Pipeline
		}
		d[i]++
		depth = max(depth, d[i])
	}
	return depth, piped
}
