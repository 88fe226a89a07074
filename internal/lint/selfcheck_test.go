package lint

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Tests for the driver around the analyzers: byte-stable finding order,
// the -why witness path, and the self-check that keeps this repository
// clean under its own analyzers.

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
// checks that a held-region finding carries its full call-chain witness:
// tab-indented frames from the reported call site down to the terminal
// may-block fact.
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
	lines := strings.Split(string(out), "\n")
	var frames []string
	for i, line := range lines {
		if !strings.Contains(line, "[lockdiscipline] call to locks.blockHelper while b.mu is held") {
			continue
		}
		for _, frame := range lines[i+1:] {
			if !strings.HasPrefix(frame, "\t") {
				break
			}
			frames = append(frames, strings.TrimPrefix(frame, "\t"))
		}
	}
	want := []string{
		`(*locks.box).recvHeldTransitively (locks.go:`,
		`locks.blockHelper (locks.go:`,
		`channel receive`,
	}
	if len(frames) != len(want) {
		t.Fatalf("blockHelper witness = %q, want %d frames like %q\n%s", frames, len(want), want, out)
	}
	for i, w := range want {
		if !strings.HasPrefix(frames[i], w) {
			t.Errorf("frame %d = %q, want prefix %q", i, frames[i], w)
		}
	}
}

// TestSelfCheck holds this repository — most importantly this package —
// to its own analyzers: the whole module is loaded (the summary needs the
// full graph) and every package must come back clean. It also holds the
// layout that keeps the determinism check intraprocedural: every package
// outside internal/ is a main package, which no package can import, so
// every module function internal code can call is itself checked.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repository")
	}
	pkgs, fset, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatalf("load repository: %v", err)
	}
	cfg := DefaultConfig()
	for _, pkg := range pkgs {
		if !cfg.internalPath(pkg.Path) && pkg.Types.Name() != "main" {
			t.Errorf("%s is package %s outside internal/: internal code could call it, and the determinism check does not look there; move it under internal/ or make it a command",
				pkg.Path, pkg.Types.Name())
		}
	}
	findings := RunPackages(fset, pkgs, cfg)
	for _, f := range findings {
		t.Errorf("repository is not self-clean: %s", f)
	}
}
