package core

import (
	"testing"

	"swift/internal/cluster"
	"swift/internal/obs"
	"swift/internal/shuffle"
)

// actions returns the actions of one kind seen so far.
func (h *harness) actions(kind ActionKind) []Action {
	var out []Action
	for _, a := range h.events {
		if a.Kind == kind {
			out = append(out, a)
		}
	}
	return out
}

func (h *harness) replicates() []Action { return h.actions(ActReplicate) }

func (h *harness) degrades() []Action { return h.actions(ActShuffleDegraded) }

func TestReplicationDisabledByDefault(t *testing.T) {
	h := newHarness(t, 4, 4, DefaultOptions())
	h.submit(barrierJob("j", 3, 2))
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job did not complete")
	}
	if got := h.replicates(); len(got) != 0 {
		t.Fatalf("R<=1 emitted %d ActReplicate actions", len(got))
	}
}

func TestTaskFinishEmitsReplicate(t *testing.T) {
	opts := DefaultOptions()
	opts.ShuffleReplicas = 2
	h := newHarness(t, 4, 2, opts)
	h.submit(barrierJob("j", 3, 2))
	for i := 0; i < 3; i++ {
		h.finish(ref("j", "A", i))
	}
	reps := h.replicates()
	if len(reps) != 3 {
		t.Fatalf("got %d ActReplicate, want 3 (one per producer task)", len(reps))
	}
	for _, r := range reps {
		if len(r.Detail.Machines) != 2 {
			t.Errorf("replicate %s landed %d machines, want 2", r.Task, len(r.Detail.Machines))
		}
		seen := map[cluster.MachineID]bool{}
		for _, m := range r.Detail.Machines {
			if seen[m] {
				t.Errorf("replicate %s placed two copies on machine %d", r.Task, m)
			}
			seen[m] = true
		}
	}
	h.finishAll()
	if !h.completed("j") {
		t.Fatal("job did not complete")
	}
	// Sink stages have no consumers: their output goes to the client, so
	// B tasks must not have replicated.
	for _, r := range reps {
		if r.Task.Stage != "A" {
			t.Errorf("sink task %s replicated", r.Task)
		}
	}
}

// lossHarness finishes both producers of a 2×8 barrier job on six one-
// executor machines: six consumers launch, two stay pending, so stage A's
// buffered outputs are still needed when a copy is lost. The edge is Remote
// so a degrade is observable. It returns the machine that ran A[0] — the
// head of that output's replica ring (p, p+1, …, p+R−1 mod 6).
func lossHarness(t *testing.T, replicas int) (*harness, cluster.MachineID) {
	t.Helper()
	opts := DefaultOptions()
	opts.ShuffleReplicas = replicas
	opts.Shuffle = FixedShuffle(shuffle.Remote)
	h := newHarness(t, 6, 1, opts)
	h.submit(barrierJob("j", 2, 8))
	home := h.cl.MachineOf(h.running[ref("j", "A", 0)].Executor)
	h.finish(ref("j", "A", 0))
	h.finish(ref("j", "A", 1))
	want := 0
	if replicas > 1 {
		want = 2
	}
	if got := len(h.replicates()); got != want {
		t.Fatalf("R=%d: %d ActReplicate, want %d", replicas, got, want)
	}
	return h, home
}

// reran reports whether A[0] was relaunched as a retry after starts[from:].
func (h *harness) reran(from int) bool {
	for _, s := range h.starts[from:] {
		if s.Task == ref("j", "A", 0) && s.Reason == StartRetry {
			return true
		}
	}
	return false
}

// TestCacheWorkerLostServedFromReplica is the headline recovery win: the
// serving copy's Cache Worker dies, a replica survives, and the controller
// takes no recovery step — no re-run, no degrade, job completes. R=1 is the
// control: the same crash through the same path costs a recompute.
func TestCacheWorkerLostServedFromReplica(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		h, home := lossHarness(t, replicas)
		before := len(h.starts)
		h.c.CacheWorkerLost(home)
		h.drain()

		wantHits, wantRecomputes, wantDegrades := 1, 0, 0
		if replicas == 1 {
			wantHits, wantRecomputes, wantDegrades = 0, 1, 1
		}
		if got := h.c.ReplicaRecoveries(); got != wantHits {
			t.Errorf("R=%d: ReplicaRecoveries = %d, want %d", replicas, got, wantHits)
		}
		if got := h.c.OutputRecomputes(); got != wantRecomputes {
			t.Errorf("R=%d: OutputRecomputes = %d, want %d", replicas, got, wantRecomputes)
		}
		if got := h.degrades(); len(got) != wantDegrades {
			t.Errorf("R=%d: degraded edges %v, want %d", replicas, got, wantDegrades)
		}
		h.finishAll()
		if got := h.reran(before); got != (replicas == 1) {
			t.Errorf("R=%d: producer re-ran = %v", replicas, got)
		}
		if !h.completed("j") {
			t.Errorf("R=%d: job did not complete", replicas)
		}
	}
}

// TestAllReplicasLostFallsBackToRecompute: copies are never re-created after
// a crash, so R Cache-Worker losses across one output's ring orphan it, and
// the orphan takes the same degrade-and-recompute path at every R.
func TestAllReplicasLostFallsBackToRecompute(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		h, home := lossHarness(t, replicas)
		before := len(h.starts)
		for k := 0; k < replicas; k++ {
			if got := h.c.OutputRecomputes(); got != 0 {
				t.Fatalf("R=%d: %d recomputes with a copy still alive after %d crashes", replicas, got, k)
			}
			h.c.CacheWorkerLost((home + cluster.MachineID(k)) % 6)
			h.drain()
		}
		if got := h.c.OutputRecomputes(); got == 0 {
			t.Fatalf("R=%d: no recompute recorded after losing every copy", replicas)
		}
		if len(h.degrades()) == 0 {
			t.Errorf("R=%d: orphaned output's edge did not degrade", replicas)
		}
		h.finishAll()
		if !h.reran(before) {
			t.Errorf("R=%d: producer never re-ran after losing every copy", replicas)
		}
		if !h.completed("j") {
			t.Errorf("R=%d: job did not complete after recompute recovery", replicas)
		}
	}
}

// TestMachineFailedConsultsReplicas: a machine crash destroys its Cache
// Worker too. With surviving copies the output must not re-run; at R=1 the
// same crash orphans it.
func TestMachineFailedConsultsReplicas(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		h, home := lossHarness(t, replicas)
		before := len(h.starts)
		h.crash(home)

		wantRecomputes := 0
		if replicas == 1 {
			wantRecomputes = 1
		}
		if got := h.c.OutputRecomputes(); got != wantRecomputes {
			t.Errorf("R=%d: OutputRecomputes = %d after machine crash, want %d", replicas, got, wantRecomputes)
		}
		h.finishAll()
		if got := h.reran(before); got != (replicas == 1) {
			t.Errorf("R=%d: producer re-ran = %v", replicas, got)
		}
		if !h.completed("j") {
			t.Errorf("R=%d: job did not complete", replicas)
		}
	}
}

// TestSinkOutputLossReportedAtEveryR pins the one-location-model rule for
// outputs that never get a replica row: a finished sink task's output has
// its single implicit home at every R, so losing that machine — its Cache
// Worker or all of it — is reported (and, nobody needing it, takes no step).
// The forked path skipped such stages in CacheWorkerLost when R > 1.
func TestSinkOutputLossReportedAtEveryR(t *testing.T) {
	losses := map[string]func(*Controller, cluster.MachineID){
		"CacheWorkerLost": (*Controller).CacheWorkerLost,
		"MachineFailed":   (*Controller).MachineFailed,
	}
	for name, lose := range losses {
		for _, replicas := range []int{1, 3} {
			rec := obs.New()
			opts := DefaultOptions()
			opts.ShuffleReplicas = replicas
			opts.Obs = rec
			h := newHarness(t, 4, 2, opts)
			h.submit(barrierJob("j", 2, 2))
			h.finish(ref("j", "A", 0))
			h.finish(ref("j", "A", 1))
			sink := h.cl.MachineOf(h.running[ref("j", "B", 0)].Executor)
			h.finish(ref("j", "B", 0))
			lose(h.c, sink)
			h.drain()

			reported := false
			for _, e := range rec.Events() {
				if e.Kind == obs.EvOutputLost && e.Stage == "B" && e.Index == 0 && e.Label == "no-step" {
					reported = true
				}
			}
			if !reported {
				t.Errorf("%s R=%d: lost sink output B[0] not reported", name, replicas)
			}
			h.finishAll()
			if !h.completed("j") {
				t.Errorf("%s R=%d: job did not complete", name, replicas)
			}
		}
	}
}
