package exp

import "testing"

// TestShuffleRecoveryReplicaCheaper is the experiment's acceptance bar:
// under the identical seed and fault schedule, the replicated arm must
// recover strictly more cheaply than the recompute arm — fewer producer
// re-runs, because surviving replicas absorb the losses.
func TestShuffleRecoveryReplicaCheaper(t *testing.T) {
	cfg := Config{Seed: 1}
	rows := ShuffleRecovery(cfg)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	recompute, replica := rows[0], rows[1]
	if recompute.Policy != "recompute" || replica.Policy != "replica" {
		t.Fatalf("unexpected arm order: %q, %q", recompute.Policy, replica.Policy)
	}
	for _, r := range rows {
		if r.Violations != 0 {
			t.Errorf("%s arm reported %d invariant violations", r.Policy, r.Violations)
		}
		if r.Completed == 0 {
			t.Errorf("%s arm completed no jobs", r.Policy)
		}
	}
	if replica.Recomputes >= recompute.Recomputes {
		t.Errorf("replica arm not strictly cheaper: recomputes %d vs %d",
			replica.Recomputes, recompute.Recomputes)
	}
	if replica.ReplicaHits == 0 {
		t.Error("replica arm never served from a replica — schedule too gentle to test failover")
	}
	if recompute.ReplicaHits != 0 {
		t.Errorf("R=1 arm claims %d replica hits", recompute.ReplicaHits)
	}
}

// TestShuffleRecoveryDeterministic re-runs one arm and demands an identical
// trace hash: replication and its recovery events are part of the
// determinism witness.
func TestShuffleRecoveryDeterministic(t *testing.T) {
	cfg := Config{Seed: 1}
	a := ShuffleRecovery(cfg)
	b := ShuffleRecovery(cfg)
	for i := range a {
		if a[i].TraceHash != b[i].TraceHash {
			t.Errorf("%s arm hash differs across reruns: %016x vs %016x",
				a[i].Policy, a[i].TraceHash, b[i].TraceHash)
		}
	}
}
