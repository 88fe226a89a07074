package chaos

import (
	"swift/internal/core"
	"swift/internal/sched"
	"swift/internal/trace"
)

// The named soak configurations — what `swiftchaos -fair` and `swiftchaos
// -shuffle` run and what the package's tests pin — spelled once. Each layers
// onto whatever the Config already holds, so they combine.

// options returns the controller options the soak will run with,
// materialising the defaults on first use.
func (c *Config) options() *core.Options {
	if c.Options == nil {
		o := core.DefaultOptions()
		c.Options = &o
	}
	return c.Options
}

// profile is options' counterpart for the fault mix.
func (c *Config) profile() *Profile {
	if c.Profile == nil {
		p := DefaultProfile()
		c.Profile = &p
	}
	return c.Profile
}

// UseFairShare switches the soak to the multi-tenant fairness mix: three
// tenants under the fair-share policy with weights 2:1:1, tenant b
// bursting 10x for 30 s and tenant c hard-capped at 30 executors, with the
// auditor's starvation invariant armed and c's quota audited (Run reads it
// off the policy). Jobs is ignored.
func (c *Config) UseFairShare() {
	c.options().Policy = sched.NewFairShare(sched.FairShareConfig{Queues: []sched.QueueSpec{
		{Name: "a", Weight: 2},
		{Name: "b", Weight: 1},
		{Name: "c", Weight: 1, Quota: 30},
	}})
	c.Tenants = []trace.TenantSpec{
		{Name: "a", Jobs: 12, Rate: 0.4},
		{Name: "b", Jobs: 12, Rate: 0.4, BurstAt: 20, BurstDur: 30, BurstFactor: 10},
		{Name: "c", Jobs: 8, ArrivalWindow: 60},
	}
}

// UseReplicatedShuffle turns on 3-way output replication and makes Cache
// Worker crashes the only way an output is lost: each one wipes a single
// machine's buffered copies, and with R=3 most losses find a survivor. Not
// all: copies are never re-created, so the third crash on one output's ring
// orphans it and it recomputes (seeds 0–7 of the default workload report
// 1,294 replica hits and 177 recomputes). Machine crashes and direct
// output-lost faults are excluded — the former can take several homes down
// in one window, the latter models fleet-wide eviction that bypasses
// replicas by design.
func (c *Config) UseReplicatedShuffle() {
	c.options().ShuffleReplicas = 3
	p := c.profile()
	p.MachineCrashPerMin = 0
	p.MachineUnhealthyPerMin = 0
	p.OutputLostPerMin = 0
	p.CacheWorkerCrashPerMin = 8
}
