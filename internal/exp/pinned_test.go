package exp

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"swift/internal/obs"
)

// The pinned obs stream hashes: testdata/hashes.txt holds one "name hash"
// line per registered experiment, in Names() order, at seed 1. Each line
// is what `swiftbench -seed 1 -hashes -run <id>` prints, except fig16's,
// which is the short sweep its test runs (fig16Short). Every other
// determinism check in this package is run-vs-run; these pin the hashes
// themselves, so a refactor that must not move simulated behaviour is held
// to the values of the commit that set the table. Each paper experiment's
// test checks its own line on the seed-1 run it makes anyway
// (checkPinned), and TestPinnedReducedHashes runs the experiments no such
// test runs. scripts/ci.sh compares the binary's output against the same
// file.
//
// go test ./internal/exp -run Pinned -update rewrites the table — only
// legitimate when a change is *meant* to move simulated behaviour, and then
// EXPERIMENTS.md must say why.
var update = flag.Bool("update", false, "rewrite testdata/hashes.txt instead of comparing")

const pinnedHashes = "testdata/hashes.txt"

func pinLine(name string, hash uint64) string { return fmt.Sprintf("%s %016x", name, hash) }

// checkPinned fails t unless hash is name's line of the table. Under
// -update it checks nothing: the table is being rewritten.
func checkPinned(t *testing.T, name string, hash uint64) {
	t.Helper()
	if *update {
		return
	}
	data, err := os.ReadFile(pinnedHashes)
	if err != nil {
		t.Fatal(err)
	}
	if line := pinLine(name, hash); !slices.Contains(strings.Split(string(data), "\n"), line) {
		t.Errorf("obs stream hash moved: got %q, not in %s", line, pinnedHashes)
	}
}

func TestPinnedReducedHashes(t *testing.T) {
	if *update {
		names := slices.DeleteFunc(Names(), func(n string) bool { return n == "fig16" })
		got := map[string]string{}
		for _, r := range RunAll(names, cfg(), 0, true) {
			got[r.Name] = pinLine(r.Name, r.Hash)
		}
		c := Config{Seed: 1, Obs: obs.NewHash()}
		fig16Short(c)
		got["fig16"] = pinLine("fig16", c.Obs.StreamHash())
		var lines []string
		for _, n := range Names() {
			lines = append(lines, got[n])
		}
		if err := os.WriteFile(pinnedHashes, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(pinnedHashes)
	if err != nil {
		t.Fatal(err)
	}
	if n, registered := strings.Count(string(data), "\n"), len(Names()); n != registered {
		t.Errorf("%s pins %d experiments, %d are registered", pinnedHashes, n, registered)
	}
	// The paper experiments' tests check their own lines.
	names := slices.DeleteFunc(Names(), func(n string) bool { return slices.Contains(PaperOrder(), n) })
	for _, r := range RunAll(names, cfg(), 0, true) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		checkPinned(t, r.Name, r.Hash)
	}
}
