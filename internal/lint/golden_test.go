package lint

import (
	"encoding/json"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The golden tests load the fixture module under testdata/src/lintest with
// the real loader (go list + export data + go/types), run the analyzers,
// and diff the findings against `want` directives embedded in the fixture
// sources:
//
//	code() // want <analyzer> "<message substring>"

var testdataDir = filepath.Join("testdata", "src", "lintest")

var (
	goldenOnce sync.Once
	goldenPkgs []*Package
	goldenFset *token.FileSet
	goldenErr  error
)

func loadGolden(t *testing.T) ([]*Package, *token.FileSet) {
	t.Helper()
	goldenOnce.Do(func() {
		goldenPkgs, goldenFset, goldenErr = Load(testdataDir, "./...")
	})
	if goldenErr != nil {
		t.Fatalf("load testdata module: %v", goldenErr)
	}
	return goldenPkgs, goldenFset
}

type expectation struct {
	file     string // base name
	line     int
	analyzer string
	substr   string
}

var wantRe = regexp.MustCompile(`want\s+(\w+)\s+"([^"]*)"`)

func collectWants(t *testing.T) []expectation {
	t.Helper()
	var wants []expectation
	err := filepath.Walk(testdataDir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if !strings.Contains(line, "//") {
				continue // a want directive only counts inside a comment
			}
			comment := line[strings.Index(line, "//"):]
			for _, m := range wantRe.FindAllStringSubmatch(comment, -1) {
				wants = append(wants, expectation{
					file:     filepath.Base(path),
					line:     i + 1,
					analyzer: m[1],
					substr:   m[2],
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan wants: %v", err)
	}
	if len(wants) == 0 {
		t.Fatal("no want directives found in testdata")
	}
	return wants
}

// TestGoldenFindings is the end-to-end check for all five analyzers: every
// finding must be wanted, every want must be found.
func TestGoldenFindings(t *testing.T) {
	pkgs, fset := loadGolden(t)
	findings := RunPackages(fset, pkgs, ConfigForModule("lintest"))
	wants := collectWants(t)

	matched := make([]bool, len(wants))
	for _, f := range findings {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != filepath.Base(f.File) || w.line != f.Line ||
				w.analyzer != f.Analyzer || !strings.Contains(f.Message, w.substr) {
				continue
			}
			matched[i] = true
			ok = true
			break
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing finding: %s:%d [%s] ~ %q", w.file, w.line, w.analyzer, w.substr)
		}
	}
}

// TestSwiftvetCommand runs the real driver over the fixture module: seeded
// violations must produce exit status 1 and a parseable -json stream.
func TestSwiftvetCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the swiftvet binary")
	}
	cmd := exec.Command(buildSwiftvet(t), "-json", "./...")
	cmd.Dir = testdataDir
	out, runErr := cmd.Output()
	exit, ok := runErr.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit status 1 on seeded violations, got err=%v output=%s", runErr, out)
	}
	if code := exit.ExitCode(); code != 1 {
		t.Fatalf("want exit status 1, got %d (stderr: %s)", code, exit.Stderr)
	}
	var findings []Finding
	if err := json.Unmarshal(out, &findings); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	if len(findings) == 0 {
		t.Fatal("-json reported no findings for a module full of seeded violations")
	}
	for _, f := range findings {
		if f.Analyzer == "" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("incomplete JSON finding: %+v", f)
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "determinism", File: "x.go", Line: 3, Col: 7, Message: "m"}
	if got, want := f.String(), "x.go:3:7: [determinism] m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestConfigForModule(t *testing.T) {
	cfg := ConfigForModule("lintest")
	if cfg.Module != "lintest" {
		t.Errorf("Module = %q", cfg.Module)
	}
	if !cfg.internalPath("lintest/internal/core") || !cfg.internalPath("lintest/internal/rpc") {
		t.Error("internal package not recognised")
	}
	if cfg.internalPath("lintest/cmd/tool") || cfg.internalPath("other/internal/x") {
		t.Error("internalPath scope too wide")
	}
}
