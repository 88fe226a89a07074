package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// BatchParity guards the columnar data plane's correctness story: every
// exported batch kernel in internal/engine must be pinned to its row
// counterpart by an equivalence test. A kernel is an exported package-level
// function that takes a *Batch and returns a *Batch (or []*Batch), plus
// the Hash*Batch* in-place hashing kernels; it must be referenced from a
// test function in the same package whose name marks it as an equivalence
// check (Test*Equivalence, Test*Matches*, or Test*Parity*). A batch kernel
// without that anchor can silently drift from the row semantics the whole
// engine is validated against.
var BatchParity = &Analyzer{
	Name: "batchparity",
	Run:  runBatchParity,
}

var equivalenceTestName = regexp.MustCompile(`^Test\w*(Equivalence|Matches|Parity)`)

func runBatchParity(p *Pass) {
	if p.Pkg.Path != p.Cfg.Module+"/internal/engine" {
		return
	}
	refs := equivalenceRefs(p.Pkg.TestFiles)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() || refs[fd.Name.Name] {
				continue
			}
			sig := p.Pkg.Info.Defs[fd.Name].Type().(*types.Signature)
			if hasBatch(sig.Params(), false) && (hasBatch(sig.Results(), true) || strings.HasPrefix(fd.Name.Name, "Hash")) {
				p.Reportf(fd.Pos(), "batch kernel %s has no row-equivalence test; reference it from a Test*Equivalence/Matches/Parity function in this package", fd.Name.Name)
			}
		}
	}
}

// hasBatch reports whether the tuple holds a *Batch (or, with slices, a
// []*Batch).
func hasBatch(t *types.Tuple, slices bool) bool {
	for i := 0; i < t.Len(); i++ {
		typ := t.At(i).Type()
		if sl, ok := typ.(*types.Slice); ok && slices {
			typ = sl.Elem()
		}
		if ptr, ok := typ.(*types.Pointer); ok {
			if named, ok := ptr.Elem().(*types.Named); ok && named.Obj().Name() == "Batch" {
				return true
			}
		}
	}
	return false
}

// equivalenceRefs collects every identifier referenced inside equivalence
// test functions (syntax-only scan over the package's test files).
func equivalenceRefs(testFiles []*ast.File) map[string]bool {
	refs := make(map[string]bool)
	for _, f := range testFiles {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !equivalenceTestName.MatchString(fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					refs[id.Name] = true
				}
				return true
			})
		}
	}
	return refs
}
