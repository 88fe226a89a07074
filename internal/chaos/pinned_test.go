package chaos

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// The pinned soak outcomes. TestSoakDeterminism and its siblings compare a
// run against a re-run of the same binary; this table pins the summary
// line itself — auditor trace hash, terminal tallies, fault counts,
// replica hits and recomputes — for seeds 0–7 of the three configurations
// `swiftchaos`, `swiftchaos -fair` and `swiftchaos -shuffle` run and of their
// combination behind an admission plane (all-on), so "same behaviour as the
// parent" is a test instead of a by-hand diff.
//
// go test ./internal/chaos -run Pinned -update rewrites the table — only
// legitimate when a change is *meant* to move simulated behaviour, and then
// EXPERIMENTS.md must say why.
var update = flag.Bool("update", false, "rewrite testdata/soak_summaries.txt instead of comparing")

const pinnedSoaks = "testdata/soak_summaries.txt"

// shuffleConfig is `swiftchaos -shuffle`.
func shuffleConfig(seed int64) Config {
	c := Config{Seed: seed}
	c.UseReplicatedShuffle()
	return c
}

// allOnConfig combines the three features that had only soaked alone: the
// fair-share policy and R = 3 replication over the thundering-herd soak's
// admission plane and overload bursts.
func allOnConfig(seed int64) Config {
	c := herdConfig(seed)
	c.UseFairShare()
	c.UseReplicatedShuffle()
	return c
}

func TestPinnedSoakSummaries(t *testing.T) {
	configs := []struct {
		name string
		cfg  func(seed int64) Config
	}{
		{"default", func(seed int64) Config { return Config{Seed: seed} }},
		{"fair", fairConfig},
		{"shuffle", shuffleConfig},
		{"all-on", allOnConfig},
	}
	var got []string
	for _, c := range configs {
		for seed := int64(0); seed < 8; seed++ {
			got = append(got, c.name+" "+Run(c.cfg(seed)).String())
		}
	}
	if *update {
		if err := os.WriteFile(pinnedSoaks, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(pinnedSoaks)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s holds %d lines, want %d", pinnedSoaks, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("soak moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
