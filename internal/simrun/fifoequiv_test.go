package simrun

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"swift/internal/core"
	"swift/internal/obs"
	"swift/internal/sched"
	"swift/internal/sim"
	"swift/internal/trace"
)

// dumpResults renders a run's full outcome deterministically: every job in
// ID order with its terminal state, every task sample, and every stage
// phase record in key order. Two runs are byte-identical iff their dumps
// (and obs stream hashes) are.
func dumpResults(res *Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan=%v\n", res.Makespan)
	for _, jr := range res.SortedJobs() {
		fmt.Fprintf(&b, "job=%s tenant=%s submit=%v finish=%v done=%v failed=%v restarts=%d resends=%d\n",
			jr.ID, jr.Tenant, jr.Submit, jr.Finish, jr.Completed, jr.Failed, jr.Restarts, jr.Resends)
		for _, s := range jr.Samples {
			fmt.Fprintf(&b, "  sample=%+v\n", s)
		}
		stages := make([]string, 0, len(jr.Phases))
		for name := range jr.Phases {
			stages = append(stages, name)
		}
		sort.Strings(stages)
		for _, name := range stages {
			fmt.Fprintf(&b, "  phase=%s %+v\n", name, *jr.Phases[name])
		}
	}
	return b.String()
}

// tracedRun executes the standard synthetic trace under the given policy
// and returns the obs stream hash plus the full results dump.
func tracedRun(seed int64, policy sched.Policy) (uint64, string) {
	opts := core.DefaultOptions()
	opts.Policy = policy
	rec := obs.New()
	opts.Obs = rec
	r := New(Config{Cluster: testCluster(), Options: opts, Seed: seed})
	tr := trace.Generate(trace.Spec{Jobs: 24, Seed: seed, ArrivalWindow: 30, Scale: 0.5, RuntimeCap: 60})
	for _, j := range tr.Jobs {
		r.SubmitAt(sim.FromSeconds(j.SubmitAt), j.Job)
	}
	res := r.Run()
	return rec.StreamHash(), dumpResults(res)
}

// TestFairShareReducesToFIFOSingleTenant is the policy layer's equivalence
// property: with a single tenant the fair-share policy must
// reproduce the default FIFO schedule exactly — same obs event stream
// (hash) and byte-identical results — across seeds. One tenant's deserved
// share is the whole pool, so budgets never bind, preemption never finds a
// victim, and the budgeted serve must degenerate into the nil plan's
// queue-order walk.
func TestFairShareReducesToFIFOSingleTenant(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		fifoHash, fifoDump := tracedRun(seed, sched.FIFO{})
		fairHash, fairDump := tracedRun(seed, sched.NewFairShare(sched.FairShareConfig{}))
		if fifoHash != fairHash {
			t.Errorf("seed %d: obs stream hash differs: fifo %016x, fair %016x", seed, fifoHash, fairHash)
		}
		if fifoDump != fairDump {
			line := 0
			ff, fr := strings.Split(fifoDump, "\n"), strings.Split(fairDump, "\n")
			for line < len(ff) && line < len(fr) && ff[line] == fr[line] {
				line++
			}
			get := func(s []string) string {
				if line < len(s) {
					return s[line]
				}
				return "<EOF>"
			}
			t.Errorf("seed %d: results diverge at line %d:\n  fifo: %s\n  fair: %s",
				seed, line, get(ff), get(fr))
		}
	}
}
