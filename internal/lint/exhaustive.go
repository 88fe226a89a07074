package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Exhaustive enforces full coverage of the project's closed sums, the
// partial-coverage class of bug that silently drops a new recovery action
// or fault kind on the floor:
//
//   - a switch whose tag is a module-declared iota enum (integer constants
//     numbered contiguously from zero, e.g. chaos.FaultKind, shuffle.Mode,
//     engine.ColType, core.FailureKind, core.ActionKind) must cover every
//     member or carry a default;
//   - a type switch over a module-declared sealed interface (one with an
//     unexported method, e.g. the testdata's Node with its isNode) must
//     cover every implementing type declared in the interface's package,
//     or carry a default.
//
// Sentinel count members (named num*, e.g. numFaultKinds) are not real
// members and are ignored. An intentional no-op for some members is
// written as an explicit `case X, Y: // why` arm, which both covers the
// members and documents the decision — exactly what a silent omission
// does not.
var Exhaustive = &Analyzer{
	Name: "exhaustive",
	Run:  runExhaustive,
}

func runExhaustive(p *Pass) {
	if !p.Cfg.inModule(p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				checkEnumSwitch(p, n)
			case *ast.TypeSwitchStmt:
				checkTypeSwitch(p, n)
			}
			return true
		})
	}
}

// enumMembers returns the constant members of a candidate enum type: the
// package-scope constants of exactly that type, minus sentinel counters,
// keyed by exact value. The result is nil unless the constants look like
// an iota enum — at least two distinct values, exactly 0..n-1 — which
// keeps unit-style constant families (sim.Second, …) out of scope.
func enumMembers(named *types.Named) map[string]string {
	scope := named.Obj().Pkg().Scope()
	members := make(map[string]string) // exact constant value -> first name
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) || strings.HasPrefix(name, "num") {
			continue
		}
		if _, seen := members[c.Val().ExactString()]; !seen {
			members[c.Val().ExactString()] = name
		}
	}
	for i := range len(members) {
		if _, ok := members[strconv.Itoa(i)]; !ok {
			return nil
		}
	}
	if len(members) < 2 {
		return nil
	}
	return members
}

// moduleNamed returns e's type when it is a named type declared in the
// module, else nil.
func moduleNamed(p *Pass, e ast.Expr) *types.Named {
	named, ok := p.Pkg.Info.TypeOf(e).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !p.Cfg.inModule(named.Obj().Pkg().Path()) {
		return nil
	}
	return named
}

// checkEnumSwitch verifies value-switch coverage over module iota enums.
func checkEnumSwitch(p *Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	named := moduleNamed(p, sw.Tag)
	if named == nil {
		return
	}
	members := enumMembers(named)
	if members == nil {
		return
	}
	reportMissing(p, sw.Pos(), sw.Body, "switch over "+named.Obj().Name(), members, func(e ast.Expr) string {
		if v := p.Pkg.Info.Types[e].Value; v != nil {
			return v.ExactString()
		}
		return ""
	})
}

// checkTypeSwitch verifies type-switch coverage over module sealed
// interfaces.
func checkTypeSwitch(p *Pass, sw *ast.TypeSwitchStmt) {
	var x ast.Expr // the parser guarantees `x.(type)` or `v := x.(type)`
	switch assign := sw.Assign.(type) {
	case *ast.ExprStmt:
		x = assign.X.(*ast.TypeAssertExpr).X
	case *ast.AssignStmt:
		x = assign.Rhs[0].(*ast.TypeAssertExpr).X
	}
	named := moduleNamed(p, x)
	if named == nil {
		return
	}
	iface, ok := named.Underlying().(*types.Interface)
	if !ok || !isSealed(iface) {
		return
	}
	members := make(map[string]string)
	for _, tn := range interfaceMembers(named, iface, p.Pkg.Types) {
		members[tn.Pkg().Path()+"."+tn.Name()] = tn.Name()
	}
	reportMissing(p, sw.Pos(), sw.Body, "type switch over "+named.Obj().Name(), members, func(e ast.Expr) string {
		t := p.Pkg.Info.TypeOf(e) // nil for `case nil`
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if n, isNamed := t.(*types.Named); isNamed && n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Path() + "." + n.Obj().Name()
		}
		return ""
	})
}

// reportMissing reports a switch without a default whose cases leave some
// of members (key -> display name) uncovered; key maps a case expression
// to the member it covers.
func reportMissing(p *Pass, pos token.Pos, body *ast.BlockStmt, what string, members map[string]string, key func(ast.Expr) string) {
	covered := make(map[string]bool)
	for _, stmt := range body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			return // a default covers the rest
		}
		for _, e := range cc.List {
			covered[key(e)] = true
		}
	}
	var missing []string
	for k, name := range members {
		if !covered[k] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		p.Reportf(pos, "%s misses %s; add explicit cases (a commented no-op arm is fine) or a default", what, strings.Join(missing, ", "))
	}
}

// isSealed reports whether the interface has an unexported method — the
// project's closed-sum marker (e.g. the testdata's isNode).
func isSealed(iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if !iface.Method(i).Exported() {
			return true
		}
	}
	return false
}

// interfaceMembers lists the named types implementing the sealed interface
// that are declared in the interface's own package (plus local, the
// analyzed package, when it adds implementations), in scope order. Export
// data only exposes exported names for imported packages; the project's
// sealed sums are exported types, so the catalogue is complete in
// practice.
func interfaceMembers(named *types.Named, iface *types.Interface, local *types.Package) []*types.TypeName {
	scopes := []*types.Scope{named.Obj().Pkg().Scope()}
	if local != nil && local != named.Obj().Pkg() {
		scopes = append(scopes, local.Scope())
	}
	var out []*types.TypeName
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			// *T's method set includes T's.
			if types.Implements(types.NewPointer(tn.Type()), iface) {
				out = append(out, tn)
			}
		}
	}
	return out
}
