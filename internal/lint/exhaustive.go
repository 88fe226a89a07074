package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// Exhaustive enforces full coverage of the project's closed sums, the
// partial-coverage class of bug that silently drops a new recovery action
// or fault kind on the floor:
//
//   - a switch whose tag is a module-declared iota enum (integer constants
//     numbered contiguously from zero, e.g. chaos.FaultKind, shuffle.Mode,
//     engine.ColType, core.FailureKind) must cover every member or carry a
//     default;
//   - a type switch over a module-declared sealed interface (one with an
//     unexported method, e.g. core.Action's isAction) must cover every
//     implementing type declared in the interface's package, or carry a
//     default.
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
// package-scope constants of exactly that type, minus sentinel counters.
// The result is nil unless the constants look like an iota enum —
// at least two distinct values, numbered contiguously from zero — which
// keeps unit-style constant families (sim.Second, …) out of scope.
func enumMembers(named *types.Named) map[string][]string {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return nil
	}
	members := make(map[string][]string) // exact constant value -> names
	var values []int64
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if strings.HasPrefix(name, "num") || name == "_" {
			continue
		}
		key := c.Val().ExactString()
		if _, seen := members[key]; !seen {
			if v, exact := constIntValue(c); exact {
				values = append(values, v)
			} else {
				return nil // non-integer constants: not an iota enum
			}
		}
		members[key] = append(members[key], name)
	}
	if len(values) < 2 {
		return nil
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for i, v := range values {
		if v != int64(i) {
			return nil
		}
	}
	return members
}

func constIntValue(c *types.Const) (int64, bool) {
	if c.Val() == nil {
		return 0, false
	}
	if basic, ok := c.Type().Underlying().(*types.Basic); !ok || basic.Info()&types.IsInteger == 0 {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(c.Val()))
}

// checkEnumSwitch verifies value-switch coverage over module iota enums.
func checkEnumSwitch(p *Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	info := p.Pkg.Info
	tv, ok := info.Types[sw.Tag]
	if !ok || tv.Type == nil {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !p.Cfg.inModule(named.Obj().Pkg().Path()) {
		return
	}
	members := enumMembers(named)
	if members == nil {
		return
	}
	covered := make(map[string]bool)
	hasDefault := false
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cc.List {
			if etv, ok := info.Types[e]; ok && etv.Value != nil {
				covered[etv.Value.ExactString()] = true
			}
		}
	}
	if hasDefault {
		return
	}
	var missing []string
	for key, names := range members {
		if !covered[key] {
			missing = append(missing, names[0])
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	p.Reportf(sw.Pos(), "switch over %s misses %s; add explicit cases (a commented no-op arm is fine) or a default",
		named.Obj().Name(), strings.Join(missing, ", "))
}

// checkTypeSwitch verifies type-switch coverage over module sealed
// interfaces.
func checkTypeSwitch(p *Pass, sw *ast.TypeSwitchStmt) {
	info := p.Pkg.Info
	var x ast.Expr
	switch assign := sw.Assign.(type) {
	case *ast.ExprStmt:
		if ta, ok := assign.X.(*ast.TypeAssertExpr); ok {
			x = ta.X
		}
	case *ast.AssignStmt:
		if len(assign.Rhs) == 1 {
			if ta, ok := assign.Rhs[0].(*ast.TypeAssertExpr); ok {
				x = ta.X
			}
		}
	}
	if x == nil {
		return
	}
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !p.Cfg.inModule(named.Obj().Pkg().Path()) {
		return
	}
	iface, ok := named.Underlying().(*types.Interface)
	if !ok || !isSealed(iface) {
		return
	}
	members := interfaceMembers(p, named, iface)
	if len(members) == 0 {
		return
	}
	covered := make(map[*types.TypeName]bool)
	hasDefault := false
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cc.List {
			etv, ok := info.Types[e]
			if !ok || !etv.IsType() {
				continue // case nil
			}
			t := etv.Type
			if ptr, isPtr := t.(*types.Pointer); isPtr {
				t = ptr.Elem()
			}
			if n, isNamed := t.(*types.Named); isNamed {
				covered[n.Obj()] = true
			}
		}
	}
	if hasDefault {
		return
	}
	var missing []string
	for _, m := range members {
		if !covered[m] {
			missing = append(missing, m.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	p.Reportf(sw.Pos(), "type switch over %s misses %s; add explicit cases (a commented no-op arm is fine) or a default",
		named.Obj().Name(), strings.Join(missing, ", "))
}

// isSealed reports whether the interface has an unexported method — the
// project's closed-sum marker (e.g. isAction).
func isSealed(iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if !iface.Method(i).Exported() {
			return true
		}
	}
	return false
}

// interfaceMembers lists the named types implementing the sealed interface
// that are declared in the interface's own package (plus the analyzed
// package, when it adds local implementations). Export data only exposes
// exported names for imported packages; the project's sealed sums are
// exported types, so the catalogue is complete in practice.
func interfaceMembers(p *Pass, named *types.Named, iface *types.Interface) []*types.TypeName {
	scopes := []*types.Scope{named.Obj().Pkg().Scope()}
	if p.Pkg.Types != nil && p.Pkg.Types != named.Obj().Pkg() {
		scopes = append(scopes, p.Pkg.Types.Scope())
	}
	var out []*types.TypeName
	seen := make(map[*types.TypeName]bool)
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if types.Identical(t, named) {
				continue
			}
			if _, isIface := t.Underlying().(*types.Interface); isIface {
				continue
			}
			if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
				if !seen[tn] {
					seen[tn] = true
					out = append(out, tn)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
