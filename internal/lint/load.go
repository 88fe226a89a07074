package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	Standard     bool
	Export       string
	DepOnly      bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// Package is one loaded module package: production sources fully
// type-checked against the compiler's export data, test sources parsed for
// syntax-level analyzers (batchparity's reference scan).
type Package struct {
	Path      string
	Dir       string
	Module    string
	Files     []*ast.File // production sources, type-checked
	TestFiles []*ast.File // *_test.go sources, parsed only
	Types     *types.Package
	Info      *types.Info
}

// newInfo allocates the types.Info maps every analyzer relies on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// Load resolves patterns with the go tool and returns the matched main-
// module packages, parsed and type-checked. It needs no machinery beyond
// the standard library: `go list -deps -export` names an export-data file
// for every dependency (compiling what is stale), and the stock gc
// importer reads those files back, so full types.Info is available even
// though go.mod stays dependency-free.
func Load(dir string, patterns ...string) ([]*Package, *token.FileSet, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, append([]string{"-deps", "-export"}, patterns...))
	if err != nil {
		return nil, nil, err
	}
	exports := make(map[string]string)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, lp := range listed {
		// -deps mixes the targets with their dependency closure; DepOnly
		// marks the packages no pattern named.
		if lp.DepOnly || lp.Standard || lp.Module == nil || !lp.Module.Main {
			continue
		}
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg := &Package{Path: lp.ImportPath, Dir: lp.Dir, Module: lp.Module.Path}
		for _, name := range lp.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, nil, err
			}
			pkg.Files = append(pkg.Files, af)
		}
		for _, name := range append(append([]string{}, lp.TestGoFiles...), lp.XTestGoFiles...) {
			af, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, nil, err
			}
			pkg.TestFiles = append(pkg.TestFiles, af)
		}
		var typeErrs []error
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		pkg.Info = newInfo()
		pkg.Types, _ = conf.Check(lp.ImportPath, fset, pkg.Files, pkg.Info)
		if len(typeErrs) > 0 {
			return nil, nil, fmt.Errorf("type-check %s: %v", lp.ImportPath, typeErrs[0])
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, fset, nil
}

// goList runs `go list -json args...` in dir and decodes the JSON stream.
func goList(dir string, args []string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("go list: %s", msg)
	}
	var out []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}
