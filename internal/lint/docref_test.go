package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocReferences holds the names DESIGN.md, README.md, EXPERIMENTS.md
// and ROADMAP.md cite to the tree, so a rename or a deletion fails here
// instead of leaving a stale reference for a reader to trip over:
//
//   - every backticked repo path must exist;
//   - in all but ROADMAP.md, every backticked Go name must resolve:
//     pkg.Name, pkg.Type.Member, pkg.(*Type).Method, and bare Test*,
//     Benchmark* and Fuzz* functions. pkg.Name also resolves when Name is
//     a method or field of a type in pkg. A member in lowercase
//     snake_case (a metric such as sched.busy_frac, an rpc method such as
//     flow.submit), a qualifier that is not a module package (the
//     standard library) and any span that is not one of those forms (a
//     code fragment) is not checked. ROADMAP.md is checked for paths
//     only, because it names code that is not written yet;
//   - a file.go:N line cite is rejected in all three: cite the function;
//   - the one package map, in DESIGN.md or README.md, lists exactly the
//     packages of `go list ./...`.
func TestDocReferences(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := indexModule(root)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "list", "-C", root, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []string
	for _, p := range strings.Fields(string(out)) {
		pkgs = append(pkgs, strings.TrimPrefix(p, "swift/"))
	}
	used := make(map[string]bool)
	maps := 0
	for _, doc := range []struct {
		name  string
		names bool
	}{{"DESIGN.md", true}, {"README.md", true}, {"EXPERIMENTS.md", true}, {"ROADMAP.md", false}} {
		data, err := os.ReadFile(filepath.Join(root, doc.name))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range idx.checkDoc(string(data), doc.names, used) {
			t.Errorf("%s:%s", doc.name, p)
		}
		if doc.names {
			if rows, ok := packageMap(string(data)); ok {
				maps++
				for _, p := range checkPackageMap(rows, pkgs) {
					t.Errorf("%s package map: %s", doc.name, p)
				}
			}
		}
	}
	if maps != 1 {
		t.Errorf("%d package maps in DESIGN.md and README.md; want exactly one", maps)
	}
	for _, name := range docIgnore {
		if !used[name] {
			t.Errorf("docIgnore entry %q is quoted by no document; drop it", name)
		}
	}
}

// docIgnore lists deleted names the documents quote on purpose.
var docIgnore = []string{}

// docIndex is everything a document may cite.
type docIndex struct {
	paths map[string]bool    // repo-relative files and directories
	bases map[string]bool    // base names of the files
	tops  map[string]bool    // first segments of the paths
	pkgs  map[string]*docPkg // by package name
	tests map[string]bool    // Test*, Benchmark* and Fuzz* functions
}

// docPkg is the declarations of every package with one name.
type docPkg struct {
	names   map[string]bool            // package-level declarations
	members map[string]map[string]bool // type → its methods and fields
	any     map[string]bool            // every method and field
}

func newDocIndex() *docIndex {
	return &docIndex{paths: map[string]bool{}, bases: map[string]bool{}, tops: map[string]bool{},
		pkgs: map[string]*docPkg{}, tests: map[string]bool{}}
}

// indexModule records every path under root but .git, and parses every
// Go file of the module, tests included; testdata and the directories the
// go tool ignores hold no module code.
func indexModule(root string) (*docIndex, error) {
	idx := newDocIndex()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil || rel == "." {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		rel = filepath.ToSlash(rel)
		idx.addPath(rel, !d.IsDir())
		if d.IsDir() || !strings.HasSuffix(rel, ".go") || !isModuleCode(rel) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		idx.addFile(f)
		return nil
	})
	return idx, err
}

// isModuleCode reports whether the file at rel is module code: under no
// testdata directory and no directory the go tool ignores.
func isModuleCode(rel string) bool {
	dirs := strings.Split(rel, "/")
	for _, d := range dirs[:len(dirs)-1] {
		if d == "testdata" || strings.HasPrefix(d, ".") || strings.HasPrefix(d, "_") {
			return false
		}
	}
	return true
}

func (idx *docIndex) addPath(rel string, file bool) {
	idx.paths[rel] = true
	idx.tops[strings.SplitN(rel, "/", 2)[0]] = true
	if file {
		idx.bases[rel[strings.LastIndex(rel, "/")+1:]] = true
	}
}

// addFile indexes the declarations of one file under its package name; an
// external test package counts as the package it tests.
func (idx *docIndex) addFile(f *ast.File) {
	name := strings.TrimSuffix(f.Name.Name, "_test")
	p := idx.pkgs[name]
	if p == nil {
		p = &docPkg{names: map[string]bool{}, members: map[string]map[string]bool{}, any: map[string]bool{}}
		idx.pkgs[name] = p
	}
	member := func(typ, m string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][m] = true
		p.any[m] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.names[d.Name.Name] = true
				if testName.MatchString(d.Name.Name) {
					idx.tests[d.Name.Name] = true
				}
				continue
			}
			member(recvTypeName(d.Recv.List[0].Type), d.Name.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					p.names[s.Name.Name] = true
					var fields *ast.FieldList
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, n := range fld.Names {
							member(s.Name.Name, n.Name)
						}
						if len(fld.Names) == 0 { // embedded: named by its type
							member(s.Name.Name, recvTypeName(fld.Type))
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.names[n.Name] = true
					}
				}
			}
		}
	}
}

// recvTypeName is the name of a receiver or embedded type: T, *T or
// pkg.T. The module declares no generic types.
func recvTypeName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch t := e.(type) {
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.Ident:
		return t.Name
	}
	return ""
}

var (
	codeSpan  = regexp.MustCompile("`([^`\n]+)`")
	lineCite  = regexp.MustCompile(`[\w.-]+\.go:\d+`)
	qualified = regexp.MustCompile(`^([a-z][a-z0-9]*)\.(?:\(\*(\w+)\)\.(\w+)|(\w+)(?:\.(\w+))?)$`)
	testName  = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z_]\w*$`)
	snakeCase = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	pathLike  = regexp.MustCompile(`^[\w.-]+(/[\w.-]+)*$`)
	fileName  = regexp.MustCompile(`^[A-Za-z0-9][\w.-]*\.(go|md|sh|txt|json|expected|mod)$`)
	heading   = regexp.MustCompile(`^#+ `)
	mapRow    = regexp.MustCompile("^\\| `([^`]+)` \\|")
)

// checkDoc returns one problem per stale reference in text, each prefixed
// with its line number. With names false only paths and line cites are
// checked. Every docIgnore entry text quotes is marked in used.
func (idx *docIndex) checkDoc(text string, names bool, used map[string]bool) []string {
	var problems []string
	fenced := false
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced { // program output and shell sessions
			continue
		}
		bad := func(format string, args ...any) {
			problems = append(problems, fmt.Sprintf("%d: ", i+1)+fmt.Sprintf(format, args...))
		}
		for _, c := range lineCite.FindAllString(line, -1) {
			bad("line cite %s: cite the function instead", c)
		}
		for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
			span := strings.TrimSuffix(m[1], "()")
			if ignored(span, used) {
				continue
			}
			if p, ok := idx.repoPath(span); ok && !idx.paths[p] && !idx.bases[p] {
				bad("no file or directory %s", span)
			}
			if names {
				if why := idx.resolve(span); why != "" {
					bad("%s: %s", span, why)
				}
			}
		}
	}
	return problems
}

func ignored(span string, used map[string]bool) bool {
	for _, name := range docIgnore {
		if span == name {
			used[name] = true
			return true
		}
	}
	return false
}

// repoPath reports whether span names a repo path: a slash path whose
// first segment is a top-level entry of the repo, or a bare file name.
// import paths such as math/rand are not.
func (idx *docIndex) repoPath(span string) (string, bool) {
	p := strings.TrimSuffix(strings.TrimPrefix(span, "./"), "/")
	if !pathLike.MatchString(p) {
		return "", false
	}
	if strings.Contains(p, "/") {
		return p, idx.tops[strings.SplitN(p, "/", 2)[0]]
	}
	return p, fileName.MatchString(p)
}

// resolve returns why span names no Go declaration of the module, or ""
// when it does or is not a Go name this check reads.
func (idx *docIndex) resolve(span string) string {
	if testName.MatchString(span) {
		if !idx.tests[span] {
			return "no such test, benchmark or fuzz function"
		}
		return ""
	}
	m := qualified.FindStringSubmatch(span)
	if m == nil {
		return ""
	}
	p := idx.pkgs[m[1]]
	if p == nil {
		return "" // the standard library, or not a package at all
	}
	typ, member := m[2], m[3] // pkg.(*Type).Method
	if typ == "" {
		typ, member = m[4], m[5] // pkg.Name or pkg.Type.Member
	}
	switch {
	case member != "" && !p.names[typ]:
		return fmt.Sprintf("package %s declares no type %s", m[1], typ)
	case member != "" && !p.members[typ][member]:
		return fmt.Sprintf("%s.%s has no method or field %s", m[1], typ, member)
	case member == "" && !snakeCase.MatchString(typ) && !p.names[typ] && !p.any[typ]:
		return fmt.Sprintf("package %s declares no %s", m[1], typ)
	}
	return ""
}

// packageMap returns the first-column entries of the table under a
// "Package map" heading, and whether text has one.
func packageMap(text string) ([]string, bool) {
	var rows []string
	in, found := false, false
	for _, line := range strings.Split(text, "\n") {
		if heading.MatchString(line) {
			in = strings.HasSuffix(line, " Package map")
			found = found || in
			continue
		}
		if m := mapRow.FindStringSubmatch(line); in && m != nil {
			rows = append(rows, m[1])
		}
	}
	return rows, found
}

// checkPackageMap compares the map's rows with the packages go list
// reports.
func checkPackageMap(rows, pkgs []string) []string {
	var problems []string
	listed := make(map[string]bool)
	for _, r := range rows {
		if listed[r] {
			problems = append(problems, "row "+r+" repeated")
		}
		listed[r] = true
	}
	isPkg := make(map[string]bool)
	for _, p := range pkgs {
		isPkg[p] = true
		if !listed[p] {
			problems = append(problems, "no row for "+p)
		}
	}
	for _, r := range rows {
		if !isPkg[r] {
			problems = append(problems, "row "+r+" is not a package")
			isPkg[r] = true // once per row
		}
	}
	return problems
}

// TestDocReferencesResolver runs the checks on a small document against a
// small in-memory module.
func TestDocReferencesResolver(t *testing.T) {
	idx := newDocIndex()
	fset := token.NewFileSet()
	for path, src := range map[string]string{
		"internal/core/controller.go": `package core
type Controller struct{ mu int; Cluster func() }
func (c *Controller) TaskFinished() {}
func NewController() *Controller { return nil }
type Action interface{ isAction() }`,
		"internal/core/core_test.go": `package core_test
func TestSaturatedRoundTripAllocs() {}
func BenchmarkRoundTripFIFO() {}
func FuzzFrame() {}`,
	} {
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		idx.addPath("internal", false)
		idx.addPath("internal/core", false)
		idx.addPath(path, true)
		idx.addFile(f)
	}
	for _, tc := range []struct {
		doc   string
		names bool
		want  string // substring of the one problem, "" for none
	}{
		{"`core.NewController`", true, ""},
		{"`core.Controller`, `core.NewController()`", true, ""},
		{"`core.Controller.TaskFinished` and `core.Controller.Cluster`", true, ""},
		{"`core.(*Controller).TaskFinished`", true, ""},
		{"`core.Action.isAction`", true, ""},
		{"`TestSaturatedRoundTripAllocs`, `BenchmarkRoundTripFIFO`, `FuzzFrame`", true, ""},
		{"`internal/core/controller.go`, `internal/core/`, `controller.go`", true, ""},
		{"a method written as `core.TaskFinished`", true, ""},
		{"the metric `core.ns_per_event`, the method `core.schedule`", true, ""},
		{"the standard library's `sort.Slice` and `math/rand`", true, ""},
		{"a fragment `core.Controller{}` or `Test*Allocs`", true, ""},
		{"```\ninternal/order/b.go:46:2: `core.Gone`\n```", true, ""},
		{"a deleted `core.Compact`", true, "package core declares no Compact"},
		{"a deleted method `core.Controller.Compact`", true, "core.Controller has no method or field Compact"},
		{"`core.(*Replicated).Log`", true, "package core declares no type Replicated"},
		{"a deleted `BenchmarkFig3IdleRatio`", true, "no such test, benchmark or fuzz function"},
		{"a deleted `internal/core/shadow.go`", true, "no file or directory internal/core/shadow.go"},
		{"a deleted `shadow.go`", false, "no file or directory shadow.go"},
		{"ROADMAP names `core.Future` before it is written", false, ""},
		{"see controller.go:430 there", false, "line cite controller.go:430"},
	} {
		problems := idx.checkDoc(tc.doc, tc.names, map[string]bool{})
		switch {
		case tc.want == "" && len(problems) > 0:
			t.Errorf("%q: unexpected %q", tc.doc, problems)
		case tc.want != "" && (len(problems) != 1 || !strings.Contains(problems[0], tc.want)):
			t.Errorf("%q: got %q, want one problem containing %q", tc.doc, problems, tc.want)
		}
	}

	doc := "# Design\n## Package map\n| Package | Role |\n|---|---|\n| `internal/core` | controller |\n| `cmd/swiftd` | daemon |\n| `internal/core` | again |\n## Next\n| `internal/sim` | not in the map |\n"
	rows, ok := packageMap(doc)
	if !ok {
		t.Fatal("package map not found")
	}
	got := strings.Join(checkPackageMap(rows, []string{"internal/core", "internal/sim", "internal/flow"}), "; ")
	if want := "row internal/core repeated; no row for internal/sim; no row for internal/flow; row cmd/swiftd is not a package"; got != want {
		t.Errorf("package map problems = %q, want %q", got, want)
	}
	if _, ok := packageMap("# Design\n## System inventory\n"); ok {
		t.Error("found a package map in a document without one")
	}
}
