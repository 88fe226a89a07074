package exp

import (
	"swift/internal/chaos"
	"swift/internal/core"
	"swift/internal/sim"
)

// ShuffleRecoveryRow is one arm of the recompute-vs-replica recovery-cost
// comparison: a trace workload soaked under the same machine-loss and
// Cache-Worker-crash schedule, once with single-copy outputs (every loss
// whose data is still needed re-runs its producer) and once with the
// controller's R-way output replication (losses fail over to a surviving
// copy and only fully-orphaned outputs recompute).
type ShuffleRecoveryRow struct {
	Policy      string // "recompute" (R=1) or "replica" (R=3)
	Replicas    int
	Jobs        int
	Completed   int
	Failed      int
	ReplicaHits int // lost serving copies promoted in place
	Recomputes  int // lost outputs that re-ran their producer
	Restarts    int
	LastFinish  float64 // recovery-cost makespan, seconds
	MeanLatency float64 // mean end-to-end latency of completed jobs, s
	Violations  int
	TraceHash   uint64
}

// shuffleRecoveryProfile is a machine-loss-heavy fault mix: Cache-Worker
// crashes and machine crashes destroy buffered outputs wholesale, which is
// exactly the damage replication absorbs. Direct output-lost faults stay
// at zero — they model fleet-wide buffer eviction, which bypasses replicas
// by design and would only add identical noise to both arms.
func shuffleRecoveryProfile() chaos.Profile {
	p := chaos.DefaultProfile()
	p.MachineCrashPerMin = 1
	p.CacheWorkerCrashPerMin = 4
	p.OutputLostPerMin = 0
	p.TaskCrashPerMin = 0.5
	p.TaskTimeoutPerMin = 0
	p.StragglerPerMin = 0
	p.ExecutorRestartPerMin = 0
	p.MachineUnhealthyPerMin = 0.5
	return p
}

// ShuffleRecovery runs the recovery-cost comparison behind output
// replication: identical seed, workload and fault schedule, with
// only the replication factor differing between arms. With R=1 every lost
// still-needed output is a producer re-run (and its consumers may cascade);
// with R=3 the controller consults surviving replicas first, so recomputes
// collapse to the rare all-copies-lost case and recovery cost (last-finish
// time, mean latency) drops with them.
func ShuffleRecovery(cfg Config) []ShuffleRecoveryRow {
	profile := shuffleRecoveryProfile()
	arms := []struct {
		policy   string
		replicas int
	}{
		{"recompute", 1},
		{"replica", 3},
	}
	rows := make([]ShuffleRecoveryRow, 0, len(arms))
	for _, arm := range arms {
		opts := core.DefaultOptions()
		opts.Obs = cfg.Obs
		opts.ShuffleReplicas = arm.replicas
		res := chaos.Run(chaos.Config{
			Seed:        cfg.Seed,
			Jobs:        16,
			Machines:    12,
			FaultWindow: 600 * sim.Second,
			Profile:     &profile,
			Options:     &opts,
		})
		rows = append(rows, ShuffleRecoveryRow{
			Policy:      arm.policy,
			Replicas:    arm.replicas,
			Jobs:        res.Jobs,
			Completed:   res.Completed,
			Failed:      res.Failed,
			ReplicaHits: res.ReplicaHits,
			Recomputes:  res.Recomputes,
			Restarts:    res.Restarts,
			LastFinish:  res.LastFinish.Seconds(),
			MeanLatency: res.MeanLatency,
			Violations:  len(res.Violations),
			TraceHash:   res.TraceHash,
		})
	}
	return rows
}

var reportShuffleRecovery = listReport("Shuffle recovery — recompute (R=1) vs replica failover (R=3) under machine loss",
	[]string{"policy", "replicas", "jobs", "completed", "replica_hits", "recomputes", "restarts", "last_finish_s", "mean_latency_s", "violations"},
	func(r ShuffleRecoveryRow) []any {
		return []any{r.Policy, r.Replicas, r.Jobs, r.Completed, r.ReplicaHits, r.Recomputes, r.Restarts, r.LastFinish, r.MeanLatency, r.Violations}
	})
