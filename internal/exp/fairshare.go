package exp

import (
	"fmt"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/metrics"
	"swift/internal/sched"
	"swift/internal/sim"
	"swift/internal/trace"
)

// fairTenants orders the sweep's tenants; weights are 2:1:1 and tenant b
// is the one whose arrival rate the burst multiplier scales.
var fairTenants = [3]string{"a", "b", "c"}
var fairWeights = [3]float64{2, 1, 1}

// FairShareRow is one (policy, burst) cell of the multi-tenant fairness
// sweep: three tenants with 2:1:1 weights share one cluster while tenant
// b's arrival rate is scaled 1x/3x/10x.
type FairShareRow struct {
	Policy string
	Burst  string
	// ContendedSec is the total virtual time during which every tenant had
	// a resource request in the scheduler queue — the window fairness is
	// measured over. Shares are each tenant's fraction of the
	// executor-time consumed in that window, in fairTenants order.
	ContendedSec float64
	Shares       [3]float64
	// Jain is Jain's fairness index over the weight-normalized shares
	// (1.0 = perfectly weighted-fair); MaxDevPct is the largest relative
	// deviation of any tenant's weight-normalized share from their mean.
	Jain      float64
	MaxDevPct float64
	// P99 is each tenant's p99 end-to-end job latency in seconds, in
	// fairTenants order.
	P99 [3]float64
	// Reclaims counts whole graphlets the policy preempted; Completed and
	// Jobs tally terminal outcomes across all tenants.
	Reclaims  int
	Completed int
	Jobs      int
}

// fairShareBursts are the arrival multipliers applied to tenant b.
var fairShareBursts = [3]int{1, 3, 10}

// FairShare is the fairness experiment behind the scheduling policy layer:
// tenants a/b/c (weights 2:1:1) submit Poisson arrivals against a
// 10-machine cluster, with tenant b's rate and job count scaled by the
// burst multiplier. Each intensity runs once under the default FIFO policy
// and once under the weighted fair-share policy; executor-time shares
// are integrated over the instants when all three tenants have queued
// backlog, where a weighted-fair scheduler keeps weight-normalized shares
// equal. Under FIFO the 10x burst lets tenant b monopolize the pool;
// under fair share Jain's index stays near 1 and the burst's latency cost
// lands on the bursting tenant instead of its neighbours.
func FairShare(cfg Config) []FairShareRow {
	rows := make([]FairShareRow, 0, 2*len(fairShareBursts))
	for _, mult := range fairShareBursts {
		for _, policy := range [2]string{"fifo", "fair"} {
			rows = append(rows, cfg.fairShareOne(policy, mult))
		}
	}
	return rows
}

func (c Config) fairShareOne(policy string, mult int) FairShareRow {
	opts := core.DefaultOptions()
	if policy == "fair" {
		opts.Policy = sched.NewFairShare(sched.FairShareConfig{Queues: []sched.QueueSpec{
			{Name: fairTenants[0], Weight: fairWeights[0]},
			{Name: fairTenants[1], Weight: fairWeights[1]},
			{Name: fairTenants[2], Weight: fairWeights[2]},
		}})
	}
	ccfg := cluster.Config{Machines: 20, ExecutorsPerMachine: 4}
	r := c.sim(ccfg, opts, c.Seed)
	ctrl := r.Controller()

	// Scale/RuntimeCap tame the trace's heavy tail exactly as the flow
	// burst sweep does: fairness is measured against arrival intensity,
	// not against one 700-task outlier congesting every run. Tenant b's
	// whole burst lands in the first two seconds — before its neighbours'
	// backlogs build — so the fair policy must claw the pool back from a
	// tenant that legitimately acquired it while idle (the reclaim path),
	// not merely withhold grants.
	tr := trace.Generate(trace.Spec{Seed: c.Seed, Scale: 0.5, RuntimeCap: 60,
		Tenants: []trace.TenantSpec{
			{Name: fairTenants[0], Jobs: 20, ArrivalWindow: 10},
			{Name: fairTenants[1], Jobs: 20 * mult, ArrivalWindow: 2},
			{Name: fairTenants[2], Jobs: 20, ArrivalWindow: 10},
		}})
	steadyAt := sim.Time(0)
	for _, j := range tr.Jobs {
		if at := sim.FromSeconds(j.SubmitAt); at > steadyAt {
			steadyAt = at
		}
	}

	// Step-function integration of per-tenant running executors over the
	// contended instants: between two event boundaries the controller's
	// state is constant, so usage accumulates running·dt from the previous
	// snapshot whenever every tenant had a resource request sitting in the
	// scheduler queue — the only instants where shares are
	// demand-unconstrained and a weighted-fair policy owes each tenant
	// running_i ∝ weight_i. Pending-task counts are deliberately not the
	// gate: a tenant whose remaining work is gated behind its own producer
	// stages cannot absorb more executors, and lending its slice out is
	// work conservation, not unfairness. Instants before the last arrival
	// are excluded too: while offered loads are still ramping, the pool's
	// composition reflects arrival order, not the policy.
	var usage [3]float64
	var window float64
	var last sim.Time
	var prevRunning [3]int
	prevContended := false
	snap := func() {
		var running [3]int
		contended := true
		byName := map[string]core.TenantCounts{}
		for _, tc := range ctrl.TenantSnapshots() {
			byName[tc.Tenant] = tc
		}
		for i, name := range fairTenants {
			tc := byName[name]
			running[i] = tc.Running
			if tc.Queued == 0 {
				contended = false
			}
		}
		prevRunning, prevContended = running, contended
	}
	r.SetEventHook(func(now sim.Time) {
		if dt := (now - last).Seconds(); dt > 0 {
			if prevContended && last >= steadyAt {
				for i := range usage {
					usage[i] += float64(prevRunning[i]) * dt
				}
				window += dt
			}
			last = now
		}
		snap()
	})

	for _, j := range tr.Jobs {
		r.SubmitAt(sim.FromSeconds(j.SubmitAt), j.Job)
	}
	r.RunBounded(4*3600*sim.Second, 5_000_000)

	row := FairShareRow{Policy: policy, Burst: fmt.Sprintf("%dx", mult),
		ContendedSec: window, Jobs: len(tr.Jobs), Reclaims: ctrl.ReclaimedGangs()}

	var total float64
	for _, u := range usage {
		total += u
	}
	var x [3]float64 // weight-normalized shares
	var sum, sumSq, mean float64
	for i, u := range usage {
		if total > 0 {
			row.Shares[i] = u / total
		}
		x[i] = u / fairWeights[i]
		sum += x[i]
		sumSq += x[i] * x[i]
	}
	if sumSq > 0 {
		row.Jain = sum * sum / (3 * sumSq)
	}
	mean = sum / 3
	for _, xi := range x {
		if mean > 0 {
			if dev := 100 * abs(xi-mean) / mean; dev > row.MaxDevPct {
				row.MaxDevPct = dev
			}
		}
	}

	durs := map[string][]float64{}
	for _, jr := range r.Results().SortedJobs() {
		if jr.Completed {
			row.Completed++
			durs[jr.Tenant] = append(durs[jr.Tenant], jr.Duration())
		}
	}
	for i, name := range fairTenants {
		if d := durs[name]; len(d) > 0 {
			row.P99[i] = metrics.Quantile(d, 0.99)
		}
	}
	return row
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
