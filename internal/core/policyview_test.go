package core

import (
	"slices"
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
// forgets to patch the view fails here by name.
func TestKeptPolicyViewAuditedThroughRecovery(t *testing.T) {
	for _, recovery := range []RecoveryPolicy{FineGrained, JobRestart} {
		opts := DefaultOptions()
		opts.Recovery = recovery
		opts.Policy = sched.NewFairShare(sched.FairShareConfig{})
		h := newHarness(t, 2, 4, opts)
		check := func(stage string) {
			t.Helper()
			h.drain()
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
		for _, j := range []string{"a1", "a2", "a3", "b1"} {
			if !h.completed(j) {
				t.Errorf("recovery %v: %s not completed", recovery, j)
			}
		}
	}
}

// A kept view that no longer matches the queue is a named invariant
// violation, whichever way it went wrong, under every policy: FIFO keeps
// and audits the same views as fair share, and each corruption reads the
// same to both audits.
func TestCheckInvariantsCatchesStaleKeptView(t *testing.T) {
	var fair []string // fair share's violation for each corruption, in order
	for _, policy := range []sched.Policy{sched.NewFairShare(sched.FairShareConfig{}), sched.FIFO{}} {
		opts := DefaultOptions()
		opts.Policy = policy
		h := newHarness(t, 1, 2, opts)
		h.submit(tenantJob("a", "a1", 3, 1))
		h.submit(tenantJob("a", "a2", 1, 1))
		if len(h.c.items) != 2 || len(h.c.gangs) != 1 {
			t.Fatalf("%s: want a kept view of both queued requests and one gang, have %+v and %+v",
				policy.Name(), h.c.items, h.c.gangs)
		}
		if v := h.c.CheckInvariants(); len(v) > 0 {
			t.Fatalf("%s: kept views violate before any corruption: %v", policy.Name(), v)
		}
		var got []string
		expect := func(want string) {
			t.Helper()
			v := h.c.CheckInvariants()
			if len(v) != 1 || !strings.Contains(v[0], want) {
				t.Fatalf("%s: violations = %q, want exactly one containing %q", policy.Name(), v, want)
			}
			if fair != nil && v[0] != fair[len(got)] {
				t.Fatalf("%s: violation %q, fair share's %q", policy.Name(), v[0], fair[len(got)])
			}
			got = append(got, v[0])
		}
		// A queued run's pending count moved without its entry being patched.
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
		// A gang's running count moved without its entry being synced.
		h.c.gangs[0].Running++
		expect("kept gang list holds 1 gangs, a rebuild 1, or they differ")
		h.c.gangs[0].Running--
		// A tenant's running count moved without its tasks': the usage
		// view is the count's one home, so the tenant recount catches it.
		h.c.usage[0].Running++
		expect(`tenant "a" counters`)
		h.c.usage[0].Running--
		// A job's running count moved without its graphlets'.
		h.c.jobs["a1"].running++
		expect("a1: job running count")
		h.c.jobs["a1"].running--
		if v := h.c.CheckInvariants(); len(v) > 0 {
			t.Fatalf("%s: restored view still violates: %v", policy.Name(), v)
		}
		fair = got
	}
}

// deferringPolicy is fair share that can be told to answer JobOrder with
// nil — "no opinion, serve in queue order". It embeds the Policy
// interface, not *sched.FairShare, so it is no sched.Rounder and the
// controller calls it, not a round of the fair share inside.
type deferringPolicy struct {
	sched.Policy
	deferred bool
}

func (p *deferringPolicy) JobOrder(items []sched.Item, view sched.View) []sched.Grant {
	if p.deferred {
		return nil
	}
	return p.Policy.JobOrder(items, view)
}

// TestKeptViewPatchedAtEverySite drives each controller path that used to
// throw the kept view away — it patches the view in place now — and holds
// the result to a fresh build after the event. Each case also checks that
// the event really went through its site.
func TestKeptViewPatchedAtEverySite(t *testing.T) {
	fair := func() Options {
		opts := DefaultOptions()
		opts.Policy = sched.NewFairShare(sched.FairShareConfig{})
		return opts
	}
	// item returns the view entry of a job's graphlet, failing if absent.
	item := func(t *testing.T, h *harness, job string, g int) sched.Item {
		t.Helper()
		for _, it := range h.c.items {
			if it.Job == job && it.Graphlet == g {
				return it
			}
		}
		t.Fatalf("%s graphlet %d has no view entry in %+v", job, g, h.c.items)
		return sched.Item{}
	}
	same := func(t *testing.T, h *harness, site string) {
		t.Helper()
		want, stale := h.c.buildItems()
		if !slices.Equal(h.c.items, want) || h.c.staleItems != stale {
			t.Fatalf("%s: kept view %+v (%d stale), a rebuild %+v (%d stale)", site, h.c.items, h.c.staleItems, want, stale)
		}
		if v := h.c.CheckInvariants(); len(v) > 0 {
			t.Fatalf("%s: %v", site, v)
		}
	}

	t.Run("enqueue", func(t *testing.T) {
		h := newHarness(t, 1, 2, fair())
		h.submit(tenantJob("a", "a1", 2, 1)) // fills both executors, one task waits
		h.submit(tenantJob("b", "b1", 1, 1)) // onto a dry pool
		if it := item(t, h, "b1", 0); it.Pending != 2 || it.Tenant != "b" {
			t.Fatalf("b1's request is %+v, want 2 pending for tenant b", it)
		}
		same(t, h, "enqueue")
	})
	t.Run("markPending", func(t *testing.T) {
		h := newHarness(t, 1, 2, fair())
		h.submit(tenantJob("a", "a1", 3, 1)) // 2 of 4 launched, 2 pending
		h.finish(ref("a1", "A", 0))          // reuse: A[2] launches, B[0] waits
		// The lost output is still needed by pending B[0]: A[0] re-pends
		// while both executors stay busy, so no round patches it after.
		h.c.TaskOutputLost(ref("a1", "A", 0))
		h.drain()
		if it := item(t, h, "a1", 0); it.Pending != 2 {
			t.Fatalf("a1's request is %+v after a lost output, want 2 pending", it)
		}
		same(t, h, "markPending")
	})
	t.Run("TaskFinished reuse", func(t *testing.T) {
		h := newHarness(t, 1, 2, fair())
		h.submit(tenantJob("a", "a1", 3, 1))
		h.finish(ref("a1", "A", 0)) // the freed executor goes straight to A[2]
		if it := item(t, h, "a1", 0); it.Pending != 1 {
			t.Fatalf("a1's request is %+v after a reuse, want 1 pending", it)
		}
		same(t, h, "TaskFinished reuse")
	})
	t.Run("checkJobDone", func(t *testing.T) {
		h := newHarness(t, 1, 2, fair())
		h.submit(tenantJob("a", "a1", 2, 1)) // A launches, B waits
		h.submit(tenantJob("a", "a2", 1, 1)) // queued behind a dry pool
		h.finish(ref("a1", "A", 0))          // reuse: B[0] takes the last pending task
		if it := item(t, h, "a1", 0); it.Pending != 0 {
			t.Fatalf("a1's request is %+v, want a stale entry", it)
		}
		h.finish(ref("a1", "A", 1))
		// a1 completes with its stale entry queued; a2's grant takes the
		// freed executor, so no sweep retires the entry this round.
		h.finish(ref("a1", "B", 0))
		if !h.completed("a1") {
			t.Fatal("a1 did not complete")
		}
		if it := item(t, h, "a1", 0); it.Tenant != "" {
			t.Fatalf("a1's entry is %+v after completion, want a dead job's", it)
		}
		same(t, h, "checkJobDone")
	})
	t.Run("abortAll", func(t *testing.T) {
		h := newHarness(t, 1, 2, fair())
		h.submit(tenantJob("a", "a1", 2, 1))
		h.submit(tenantJob("b", "b1", 1, 1))
		h.submit(tenantJob("a", "a2", 1, 1))
		if err := h.c.CancelJob("b1", "test"); err != nil {
			t.Fatal(err)
		}
		if len(h.c.items) != 2 || h.c.items[1].Job != "a2" || h.c.items[1].Index != h.c.qoff+1 {
			t.Fatalf("view after cancelling b1 is %+v, want a1 then a2 renumbered", h.c.items)
		}
		same(t, h, "abortAll")
	})
	t.Run("breakDeadlock", func(t *testing.T) {
		h := newHarness(t, 2, 1, fair())
		h.submit(barrierJob("j", 1, 2)) // A gates B; 2 executors total
		mA := h.cl.MachineOf(h.running[ref("j", "A", 0)].Executor)
		h.finish(ref("j", "A", 0))          // both B tasks run
		h.submit(tenantJob("b", "k", 1, 1)) // queued ahead of j's recovery
		// The crash re-pends A[0] behind k while B[0] holds the last
		// executor waiting for A's data: the breaker preempts B[0] and
		// moves A's request to the front of the queue.
		h.crash(mA)
		if len(h.c.queue) == 0 || h.c.queue[0].m.job.ID != "j" || h.c.queue[0].g != 0 {
			t.Fatalf("A's request was not rotated to the front: %+v", h.c.items)
		}
		same(t, h, "breakDeadlock")
	})
	t.Run("deferred round", func(t *testing.T) {
		opts := DefaultOptions()
		policy := &deferringPolicy{Policy: sched.NewFairShare(sched.FairShareConfig{})}
		opts.Policy = policy
		h := newHarness(t, 1, 2, opts)
		h.submit(tenantJob("a", "a1", 1, 1))
		h.submit(tenantJob("a", "a2", 1, 1))
		h.submit(tenantJob("a", "a3", 1, 1))
		policy.deferred = true
		h.finish(ref("a1", "A", 0)) // the nil plan launches a2's A and keeps its entry
		if it := item(t, h, "a2", 0); it.Pending != 1 {
			t.Fatalf("a2's request is %+v after a deferred round, want 1 pending", it)
		}
		same(t, h, "deferred round")
		h.finish(ref("a1", "B", 0)) // the walk launches a2's B and drops its entry
		if len(h.c.items) != 1 || h.c.items[0].Job != "a3" {
			t.Fatalf("view after a deferred round is %+v, want a3 alone", h.c.items)
		}
		same(t, h, "deferred round that drops an entry")
	})
}
