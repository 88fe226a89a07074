package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
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
	kernels := batchKernels(p)
	if len(kernels) == 0 {
		return
	}
	refs := equivalenceRefs(p.Pkg.TestFiles)
	var names []string
	for name := range kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !refs[name] {
			p.Reportf(kernels[name].Pos(), "batch kernel %s has no row-equivalence test; reference it from a Test*Equivalence/Matches/Parity function in this package", name)
		}
	}
}

// batchKernels finds the exported kernel functions of the package.
func batchKernels(p *Pass) map[string]*ast.FuncDecl {
	out := make(map[string]*ast.FuncDecl)
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			if !hasBatchParam(sig) {
				continue
			}
			if returnsBatch(sig) || strings.HasPrefix(fd.Name.Name, "Hash") {
				out[fd.Name.Name] = fd
			}
		}
	}
	return out
}

func isBatchPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Batch"
}

func hasBatchParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isBatchPtr(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func returnsBatch(sig *types.Signature) bool {
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		if isBatchPtr(t) {
			return true
		}
		if sl, ok := t.(*types.Slice); ok && isBatchPtr(sl.Elem()) {
			return true
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
