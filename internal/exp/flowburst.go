package exp

import (
	"fmt"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/flow"
	"swift/internal/metrics"
	"swift/internal/sim"
	"swift/internal/trace"
)

// FlowBurstRow is one sustained-load intensity of the admission-control
// sweep: the same 60 s arrival window carrying Offered jobs through a flow
// controller in front of a small cluster.
type FlowBurstRow struct {
	// Burst labels the arrival multiplier ("1x", "3x", "10x").
	Burst   string
	Offered int
	// Admitted counts jobs that reached the scheduler (directly or after
	// queueing); Queued counts jobs that ever waited; Shed counts rejects.
	Admitted int
	Queued   int
	Shed     int
	// WaitP50/WaitP99 are admission-latency quantiles in seconds over every
	// admitted job (a direct admit contributes 0).
	WaitP50 float64
	WaitP99 float64
	// MaxQueueSeen is the wait queue's high-water mark; MaxInFlight is the
	// peak of the controller's in-flight task gauge.
	MaxQueueSeen int
	MaxInFlight  int
	// Budget is the resolved in-flight task budget and MaxJobTasks the
	// largest offered job: in-flight never exceeds max(Budget, MaxJobTasks)
	// (the oversized-job liveness rule admits such a job only alone).
	Budget      int
	MaxJobTasks int
	Completed   int
}

// flowBurstMults are the arrival multipliers of the sustained-load sweep.
var flowBurstMults = [3]int{1, 3, 10}

// FlowBurst is the sustained-load admission experiment behind swiftd's
// service mode: 1x/3x/10x the base job count arrive over one 60 s window
// against a 10×4-executor cluster guarded by a flow controller (wait queue
// 8, arrival governor 1 job/s, burst 4). At 1x everything admits directly;
// at 10x the governor and queue bound force load shedding while the
// in-flight gauge stays within the admission budget.
func FlowBurst(cfg Config) []FlowBurstRow {
	rows := make([]FlowBurstRow, 0, len(flowBurstMults))
	for _, m := range flowBurstMults {
		rows = append(rows, cfg.flowBurstOne(m))
	}
	return rows
}

func (c Config) flowBurstOne(mult int) FlowBurstRow {
	jobs := 20 * mult
	ccfg := cluster.Config{Machines: 20, ExecutorsPerMachine: 4}
	r := c.sim(ccfg, core.DefaultOptions(), c.Seed)
	eng, ctrl := r.Engine(), r.Controller()

	var waits []float64
	maxInFlight, maxJob := 0, 0

	// The same flow.Pump swiftd serves with and the chaos herd soak storms.
	pump := &flow.SimPump{Engine: eng, Pump: flow.Pump{
		Flow: flow.NewController(flow.Config{MaxQueue: 8, Rate: 1, Burst: 4},
			ccfg.Machines*ccfg.ExecutorsPerMachine),
		Snapshot: ctrl.Snapshot,
		Admit: func(_ sim.Time, job *dag.Job, waited sim.Duration, _ bool) error {
			waits = append(waits, waited.Seconds())
			return r.Submit(job)
		},
	}}
	fc := pump.Flow
	r.SetEventHook(func(now sim.Time) {
		if n := ctrl.Snapshot().InFlightTasks(); n > maxInFlight {
			maxInFlight = n
		}
		pump.OnEvent(now)
	})

	// Scale and RuntimeCap tame the trace's heavy tail: the sweep measures
	// admission behaviour versus arrival intensity, so the baseline (1x)
	// must be a load the cluster genuinely absorbs — a single 700-task
	// outlier job would otherwise congest even the idle-rate run.
	tr := trace.Generate(trace.Spec{Jobs: jobs, Seed: c.Seed, ArrivalWindow: 60,
		Scale: 0.5, RuntimeCap: 120})
	for _, j := range tr.Jobs {
		j := j
		if t := j.Job.NumTasks(); t > maxJob {
			maxJob = t
		}
		// A shed job's error is its outcome; fc.Stats counts it.
		eng.At(sim.FromSeconds(j.SubmitAt), func() { _, _ = pump.Offer(j.Job) })
	}
	r.RunBounded(4*3600*sim.Second, 5_000_000)

	completed := 0
	for _, jr := range r.Results().SortedJobs() {
		if jr.Completed {
			completed++
		}
	}
	st := fc.Stats()
	q := func(p float64) float64 {
		if len(waits) == 0 {
			return 0
		}
		return metrics.Quantile(waits, p)
	}
	return FlowBurstRow{
		Burst:        fmt.Sprintf("%dx", mult),
		Offered:      jobs,
		Admitted:     int(st.Admitted),
		Queued:       int(st.Queued),
		Shed:         int(st.Shed),
		WaitP50:      q(0.5),
		WaitP99:      q(0.99),
		MaxQueueSeen: st.MaxQueue,
		MaxInFlight:  maxInFlight,
		Budget:       fc.Budget(),
		MaxJobTasks:  maxJob,
		Completed:    completed,
	}
}
