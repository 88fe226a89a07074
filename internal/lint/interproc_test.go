package lint

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Tests for the interprocedural layer's supporting machinery: byte-stable
// finding order, the -changed reverse-dependency closure, the -why and
// -changed driver paths, and the self-check that keeps this package clean
// under its own analyzers.

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

// TestAffected covers the -changed closure and its staleness fallbacks
// against a synthetic package graph (Deps mirrors go list's transitive
// dependency list).
func TestAffected(t *testing.T) {
	pkgs := []*Package{
		{Path: "m/a", Dir: "/tmp/affected/a"},
		{Path: "m/b", Dir: "/tmp/affected/b", Deps: []string{"m/a"}},
		{Path: "m/c", Dir: "/tmp/affected/c", Deps: []string{"m/a", "m/b"}},
		{Path: "m/d", Dir: "/tmp/affected/d"},
	}

	only, stale := Affected(pkgs, []string{"/tmp/affected/a/x.go"})
	if stale != "" {
		t.Fatalf("unexpected staleness: %s", stale)
	}
	for _, want := range []string{"m/a", "m/b", "m/c"} {
		if !only[want] {
			t.Errorf("closure missing %s (got %v)", want, only)
		}
	}
	if only["m/d"] {
		t.Error("m/d does not depend on m/a but landed in the closure")
	}

	if _, stale := Affected(pkgs, []string{"go.mod"}); stale == "" {
		t.Error("a changed go.mod must force the full-tree fallback")
	}
	if _, stale := Affected(pkgs, []string{"/tmp/elsewhere/x.go"}); stale == "" {
		t.Error("a .go file outside every loaded package must force the full-tree fallback")
	}
	only, stale = Affected(pkgs, []string{"README.md", "docs/notes.txt"})
	if stale != "" || len(only) != 0 {
		t.Errorf("non-Go files should affect nothing: only=%v stale=%q", only, stale)
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

// TestSwiftvetChanged smoke-tests the incremental driver path: a changed
// fixture file narrows reporting to its package plus reverse dependencies,
// and a changed go.mod falls back to the full tree.
func TestSwiftvetChanged(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the swiftvet binary")
	}
	bin := buildSwiftvet(t)

	cmd := exec.Command(bin, "-changed", filepath.Join("internal", "det", "det.go"))
	cmd.Dir = testdataDir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, runErr := cmd.Output()
	if exit, ok := runErr.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("want exit status 1 (det.go has seeded findings), got err=%v output=%s stderr=%s",
			runErr, out, stderr.String())
	}
	if !strings.Contains(stderr.String(), "analyzing") || strings.Contains(stderr.String(), "full tree") {
		t.Errorf("expected a narrowed-run notice on stderr, got: %s", stderr.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line == "" || strings.HasPrefix(line, "\t") {
			continue
		}
		// Reporting narrows to the changed package (all its files) plus
		// reverse dependencies; det is a leaf, so only det/ may appear.
		if !strings.Contains(line, string(filepath.Separator)+"det"+string(filepath.Separator)) {
			t.Errorf("-changed det.go reported a finding outside its closure: %s", line)
		}
	}

	cmd = exec.Command(bin, "-changed", "go.mod")
	cmd.Dir = testdataDir
	stderr.Reset()
	cmd.Stderr = &stderr
	if _, runErr = cmd.Output(); runErr == nil {
		t.Fatal("full-tree fallback over the fixture module should still exit 1")
	}
	if !strings.Contains(stderr.String(), "full tree") {
		t.Errorf("expected the stale-fallback notice on stderr, got: %s", stderr.String())
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
	findings := RunPackages(fset, pkgs, DefaultConfig(), All(), nil)
	for _, f := range findings {
		t.Errorf("repository is not self-clean: %s", f)
	}
}
