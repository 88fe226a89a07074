package exp

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// The pinned reduced-sweep hashes: testdata/reduced_hashes.txt is exactly
// what `swiftbench -reduced -seed 1 -hashes -run <every id>` prints, one
// "name hash" line per registered experiment in Names() order. Every other
// determinism check in this package is run-vs-run; this one pins the obs
// stream hashes themselves, so a refactor that must not move simulated
// behaviour is held to the values of the commit that introduced the table.
// scripts/ci.sh compares the binary's output against the same file.
//
// go test ./internal/exp -run Pinned -update rewrites the table — only
// legitimate when a change is *meant* to move simulated behaviour, and then
// EXPERIMENTS.md must say why.
var update = flag.Bool("update", false, "rewrite testdata/reduced_hashes.txt instead of comparing")

const pinnedHashes = "testdata/reduced_hashes.txt"

func TestPinnedReducedHashes(t *testing.T) {
	names := Names()
	registered := len(names)
	if testing.Short() && !*update {
		// fig16 is most of the reduced sweep's wall clock.
		names = slices.DeleteFunc(names, func(n string) bool { return n == "fig16" })
	}
	var got []string
	for _, r := range RunAll(names, cfg(), 0, true) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		got = append(got, fmt.Sprintf("%s %016x", r.Name, r.Hash))
	}
	if *update {
		if err := os.WriteFile(pinnedHashes, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(pinnedHashes)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != registered {
		t.Errorf("%s pins %d experiments, %d are registered", pinnedHashes, len(want), registered)
	}
	for _, line := range got {
		if !slices.Contains(want, line) {
			t.Errorf("obs stream hash moved: got %q, not in %s", line, pinnedHashes)
		}
	}
}
