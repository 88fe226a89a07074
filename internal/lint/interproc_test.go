package lint

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Tests for the interprocedural layer's supporting machinery: byte-stable
// finding order, the -why driver path, and the self-check that keeps this
// package clean under its own analyzers.

// TestSortFindingsStable is the regression test for the ordering bug where
// two analyzers reporting on the same line came back in load order: the
// sort key must extend past (file, line, col) through analyzer and message
// so any permutation of the input renders identically.
func TestSortFindingsStable(t *testing.T) {
	mk := func(analyzer, msg string) Finding {
		return Finding{Analyzer: analyzer, File: "x.go", Line: 3, Col: 7, Message: msg}
	}
	a := mk("determinism", "channel send inside map iteration")
	b := mk("lockdiscipline", "channel send while b.mu is held")
	c := mk("determinism", "another finding on the same position")

	render := func(fs []Finding) string {
		sortFindings(fs)
		var sb strings.Builder
		for _, f := range fs {
			sb.WriteString(f.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	first := render([]Finding{a, b, c})
	second := render([]Finding{b, c, a})
	third := render([]Finding{c, a, b})
	if first != second || second != third {
		t.Errorf("finding order depends on input order:\n%s---\n%s---\n%s", first, second, third)
	}
	lines := strings.Split(strings.TrimSpace(first), "\n")
	if len(lines) != 3 || !strings.Contains(lines[0], "another finding") ||
		!strings.Contains(lines[1], "map iteration") || !strings.Contains(lines[2], "lockdiscipline") {
		t.Errorf("wrong stable order:\n%s", first)
	}
}

// buildSwiftvet compiles the driver for the exec tests; the go build cache
// makes repeat builds nearly free.
func buildSwiftvet(t *testing.T) string {
	t.Helper()
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "swiftvet")
	build := exec.Command("go", "build", "-o", bin, "./cmd/swiftvet")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build swiftvet: %v\n%s", err, out)
	}
	return bin
}

// TestSwiftvetWhy runs the driver with -why over the fixture module and
// checks that a transitive determinism finding carries its full call-chain
// witness: tab-indented frames from the reported call site down to the
// terminal wall-clock fact.
func TestSwiftvetWhy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the swiftvet binary")
	}
	bin := buildSwiftvet(t)
	cmd := exec.Command(bin, "-why", "./...")
	cmd.Dir = testdataDir
	out, runErr := cmd.Output()
	if exit, ok := runErr.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("want exit status 1, got err=%v output=%s", runErr, out)
	}
	var frames []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "\t") {
			frames = append(frames, strings.TrimPrefix(line, "\t"))
		}
	}
	if len(frames) == 0 {
		t.Fatalf("-why printed no witness frames:\n%s", out)
	}
	joined := strings.Join(frames, "\n")
	if !strings.Contains(joined, "timeutil.Stamp") {
		t.Errorf("witness frames never pass through timeutil.Stamp:\n%s", joined)
	}
	if !strings.Contains(joined, "reads the wall clock") {
		t.Errorf("witness frames never reach the terminal wall-clock fact:\n%s", joined)
	}
}

// TestSelfCheck holds this repository — most importantly this package —
// to its own analyzers: the whole module is loaded (the summaries need
// the full graph) and every package must come back clean.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repository")
	}
	pkgs, fset, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatalf("load repository: %v", err)
	}
	findings := RunPackages(fset, pkgs, DefaultConfig())
	for _, f := range findings {
		t.Errorf("repository is not self-clean: %s", f)
	}
}
