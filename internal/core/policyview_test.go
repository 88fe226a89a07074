package core

import (
	"strings"
	"testing"

	"swift/internal/dag"
	"swift/internal/sched"
)

func tenantJob(tenant, id string, aTasks, bTasks int) *dag.Job {
	j := pipelineJob(id, aTasks, bTasks)
	j.Tenant = tenant
	return j
}

// The kept policy view must survive every writer that can change what a
// policy sees. Each recovery mode is driven through reclaim (which
// requeues), task failure (requeue, or restartJob under JobRestart),
// cancellation and a machine failure under fair share, with CheckInvariants
// — which rebuilds the view and compares — after every event. A writer that
// forgets to clear itemsValid fails here by name.
func TestKeptPolicyViewAuditedThroughRecovery(t *testing.T) {
	for _, recovery := range []RecoveryPolicy{FineGrained, JobRestart} {
		opts := DefaultOptions()
		opts.Recovery = recovery
		opts.Policy = sched.NewFairShare(sched.FairShareConfig{})
		h := newHarness(t, 2, 4, opts)
		audited := 0
		check := func(stage string) {
			t.Helper()
			h.drain()
			if h.c.itemsValid {
				audited++
			}
			if v := h.c.CheckInvariants(); len(v) > 0 {
				t.Fatalf("recovery %v, %s: %v", recovery, stage, v)
			}
		}
		// Tenant a fills the pool with two gangs, then b arrives starving:
		// the policy reclaims a's newest gang, which requeues behind b.
		h.submit(tenantJob("a", "a1", 2, 2))
		check("a1 submitted")
		h.submit(tenantJob("a", "a2", 2, 2))
		check("a2 submitted")
		h.submit(tenantJob("b", "b1", 2, 2))
		check("b1 submitted")
		if h.c.ReclaimedGangs() != 1 || h.c.QueueLen() == 0 {
			t.Fatalf("recovery %v: %d reclaims, %d queued; want b's arrival to reclaim one gang of a and leave it queued",
				recovery, h.c.ReclaimedGangs(), h.c.QueueLen())
		}
		h.submit(tenantJob("b", "b2", 3, 1))
		check("b2 queued behind a dry pool")
		h.fail(ref("b1", "A", 0), FailCrash)
		check("task failure")
		h.finish(ref("a1", "A", 0))
		check("finish feeding the queue")
		if err := h.c.CancelJob("b2", "test"); err != nil {
			t.Fatal(err)
		}
		check("cancel of a queued job")
		h.c.MachineFailed(1)
		check("machine failure")
		h.submit(tenantJob("a", "a3", 1, 1))
		check("submission onto the halved pool")
		for len(h.running) > 0 {
			for r := range h.running {
				h.finish(r)
				break
			}
			check("drain")
		}
		if audited == 0 {
			t.Fatalf("recovery %v: the kept view was never valid at a check, so nothing was audited", recovery)
		}
		for _, j := range []string{"a1", "a2", "a3", "b1"} {
			if !h.completed(j) {
				t.Errorf("recovery %v: %s not completed", recovery, j)
			}
		}
	}
}

// A kept view that no longer matches the queue while itemsValid still says
// it does is a named invariant violation, whichever way it went wrong.
func TestCheckInvariantsCatchesStaleKeptView(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = sched.NewFairShare(sched.FairShareConfig{})
	h := newHarness(t, 1, 2, opts)
	h.submit(tenantJob("a", "a1", 3, 1))
	h.submit(tenantJob("a", "a2", 1, 1))
	if !h.c.itemsValid || len(h.c.items) != 2 {
		t.Fatalf("want a valid kept view of both queued requests, have valid=%v %+v", h.c.itemsValid, h.c.items)
	}
	expect := func(want string) {
		t.Helper()
		v := h.c.CheckInvariants()
		if len(v) != 1 || !strings.Contains(v[0], want) {
			t.Fatalf("violations = %q, want exactly one containing %q", v, want)
		}
	}
	// A queued run's pending count moved without the bit being cleared.
	h.c.items[0].Pending++
	expect("kept policy view entry 0 is")
	h.c.items[0].Pending--
	// The stale-entry count drifted: the sweep would be skipped or run for nothing.
	h.c.staleItems++
	expect("kept policy view counts 1 stale entries, a rebuild 0")
	h.c.staleItems--
	// The queue grew behind the view.
	h.c.items = h.c.items[:1]
	expect("kept policy view holds 1 entries for a queue of 2")
	h.c.items = h.c.items[:2]
	if v := h.c.CheckInvariants(); len(v) > 0 {
		t.Fatalf("restored view still violates: %v", v)
	}
	// Clearing the bit is all a writer owes: an invalid view is not compared.
	h.c.items[0].Pending++
	h.c.itemsValid = false
	if v := h.c.CheckInvariants(); len(v) > 0 {
		t.Fatalf("invalidated view still audited: %v", v)
	}
}

// deferringPolicy is fair share that can be told to answer JobOrder with
// nil — "no opinion, serve in queue order".
type deferringPolicy struct {
	*sched.FairShare
	deferred bool
}

func (p *deferringPolicy) JobOrder(items []sched.Item, view sched.View) []sched.Grant {
	if p.deferred {
		return nil
	}
	return p.FairShare.JobOrder(items, view)
}

// A round the policy defers is served by the FIFO walk, which edits the
// queue without the view: the view must not outlive it.
func TestDeferredRoundInvalidatesKeptView(t *testing.T) {
	opts := DefaultOptions()
	policy := &deferringPolicy{FairShare: sched.NewFairShare(sched.FairShareConfig{})}
	opts.Policy = policy
	h := newHarness(t, 1, 2, opts)
	h.submit(tenantJob("a", "a1", 1, 1))
	h.submit(tenantJob("a", "a2", 1, 1))
	if !h.c.itemsValid || h.c.QueueLen() != 1 {
		t.Fatalf("want a2 queued behind a full pool under a valid view, have valid=%v queue=%d", h.c.itemsValid, h.c.QueueLen())
	}
	policy.deferred = true
	h.finish(ref("a1", "A", 0))
	h.finish(ref("a1", "B", 0)) // the FIFO walk launches a2 and drops its entry
	if h.c.QueueLen() != 0 {
		t.Fatalf("deferred round left %d requests queued", h.c.QueueLen())
	}
	if v := h.c.CheckInvariants(); len(v) > 0 {
		t.Fatalf("after a deferred round: %v", v)
	}
}
