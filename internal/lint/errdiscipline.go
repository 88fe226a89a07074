package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDiscipline flags call statements in non-test internal packages whose
// error result vanishes — `conn.SetDeadline(...)` as a bare statement is
// the canonical offender: the deadline silently never takes effect and the
// call it was meant to bound hangs forever.
//
// Only expression statements are flagged. An explicit `_ =` discard is a
// visible, greppable decision; a bare statement is not. A short list of
// callees whose error is structurally impossible is exempt: in-memory
// writers (bytes.Buffer, strings.Builder) that return error only to
// satisfy io interfaces, and fmt printing into those writers or stdout.
var ErrDiscipline = &Analyzer{
	Name: "errdiscipline",
	Run:  runErrDiscipline,
}

// infallible lists callee prefixes whose returned error cannot be non-nil.
var infallible = []string{
	"(*bytes.Buffer).",
	"(*strings.Builder).",
	"fmt.Print",   // stdout: best-effort CLI output
	"fmt.Println", // (Print/Printf/Println share the prefix "fmt.Print")
}

func runErrDiscipline(p *Pass) {
	if !p.Cfg.internalPath(p.Pkg.Path) {
		return
	}
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call.Fun)
			if fn == nil || !returnsError(fn) || isInfallible(info, call, fn.FullName()) {
				return true
			}
			p.Reportf(call.Pos(), "result of %s includes an error that is silently discarded; handle it or assign to _ with a comment", fn.FullName())
			return true
		})
	}
}

// returnsError reports whether fn's results include the error type.
func returnsError(fn *types.Func) bool {
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), types.Universe.Lookup("error").Type()) {
			return true
		}
	}
	return false
}

// isInfallible applies the exempt-callee list, plus the special case of
// fmt.Fprint* whose destination is an in-memory writer.
func isInfallible(info *types.Info, call *ast.CallExpr, name string) bool {
	for _, pre := range infallible {
		if strings.HasPrefix(name, pre) {
			return true
		}
	}
	if strings.HasPrefix(name, "fmt.Fprint") && len(call.Args) > 0 {
		if tv, ok := info.Types[call.Args[0]]; ok && tv.Type != nil {
			s := tv.Type.String()
			if s == "*bytes.Buffer" || s == "*strings.Builder" {
				return true
			}
		}
	}
	return false
}
