package exp

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strings"
	"testing"
)

// The pinned configuration surface: testdata/knobs.txt lists every exported
// field of the structs a caller configures the system through, one
// "pkg.Struct.Field type" line each, read from the source with go/parser.
// A field is an independently settable value that tests, benchmarks and
// docs have to cover, so adding one should be a reviewed diff of that file,
// not a side effect: a field stays only while two callers that are not
// tests need different values for it (DESIGN.md "Configuration surface").
//
// go test ./internal/exp -run Pinned -update rewrites the table.
const pinnedKnobs = "testdata/knobs.txt"

var knobStructs = []struct{ dir, pkg, name string }{
	{"../core", "core", "Options"},
	{"../core", "core", "StateSnapshot"},
	{"../sched", "sched", "FairShareConfig"},
	{"../sched", "sched", "QueueSpec"},
	{"../simrun", "simrun", "Config"},
	{"../engine", "engine", "Config"},
	{"../flow", "flow", "Config"},
	{"../cluster", "cluster", "Config"},
	{"../chaos", "chaos", "Config"},
	{".", "exp", "Config"},
	{"../trace", "trace", "Spec"},
	{"../trace", "trace", "TenantSpec"},
}

func TestPinnedKnobs(t *testing.T) {
	var got []string
	for _, ks := range knobStructs {
		pkgs, err := parser.ParseDir(token.NewFileSet(), ks.dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		fields := structFields(pkgs[ks.pkg], ks.name)
		if fields == nil {
			t.Fatalf("%s.%s: struct not found in %s", ks.pkg, ks.name, ks.dir)
		}
		for _, f := range fields {
			got = append(got, fmt.Sprintf("%s.%s.%s", ks.pkg, ks.name, f))
		}
	}
	if *update {
		if err := os.WriteFile(pinnedKnobs, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(pinnedKnobs)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSuffix(string(data), "\n"); strings.Join(got, "\n") != want {
		t.Errorf("configuration surface moved; review the diff, then -update:\n got:\n%s\n want:\n%s", strings.Join(got, "\n"), want)
	}
}

// structFields returns "Field type" for every exported field of the named
// struct in declaration order, or nil when the package declares no such
// struct.
func structFields(pkg *ast.Package, name string) []string {
	if pkg == nil {
		return nil
	}
	var out []string
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != name {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			out = []string{}
			for _, f := range st.Fields.List {
				typ := types.ExprString(f.Type)
				if len(f.Names) == 0 { // embedded
					out = append(out, typ+" (embedded)")
				}
				for _, id := range f.Names {
					if id.IsExported() {
						out = append(out, id.Name+" "+typ)
					}
				}
			}
			return false
		})
	}
	return out
}
