package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the replay contract of the simulator/controller
// stack: inside module-internal packages production code must not read the
// wall clock or the global math/rand source, and must not let Go's
// randomised map iteration order leak into observable output. Three
// map-range shapes are flagged:
//
//   - a channel send inside a map range (emission order is random),
//   - an append from a map range into a slice declared outside the loop
//     that is never passed to a sort call later in the same function
//     (collect-then-sort is the sanctioned idiom),
//   - a break out of a map range that has assigned loop-derived values to
//     outer variables (selects an arbitrary element).
//
// Ranging over a channel is checked the same way appends are: results
// arrive in goroutine completion order, so `outer = append(outer, v)`
// inside a channel range bakes scheduling order into the slice. The
// sanctioned worker-pool shapes are the indexed merge — each result
// carries its input slot and the loop writes res[s.i] = s.v, making the
// merged slice independent of completion order — and collect-then-sort.
//
// Seeded *rand.Rand values threaded through call graphs are fine — only
// the process-global source and clock are forbidden.
//
// The check is intraprocedural and needs no call graph: every package
// outside internal/ is a main package (TestSelfCheck holds the layout),
// and no package can import a main package, so every module function
// internal code can call is itself in scope.
var Determinism = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

// clockCalls maps the time package's wall-clock functions to the reason
// they break replay.
var clockCalls = map[string]string{
	"Now":   "reads the wall clock",
	"Since": "reads the wall clock",
	"Until": "reads the wall clock",
	"Sleep": "blocks on the wall clock",
	"After": "schedules on the wall clock",
	"Tick":  "schedules on the wall clock",
}

// forbiddenCall says why a call to the package-level function path.name
// breaks replay: a wall-clock read, or any math/rand function but the
// New* constructors of a seeded generator — every other one uses the
// process-global source.
func forbiddenCall(path, name string) (why string, bad bool) {
	switch path {
	case "time":
		why, bad = clockCalls[name]
	case "math/rand", "math/rand/v2":
		why, bad = "uses the global rand source", !strings.HasPrefix(name, "New")
	}
	return why, bad
}

func runDeterminism(p *Pass) {
	if !p.Cfg.internalPath(p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files {
		// Forbidden calls: anywhere in the file, including package-level
		// variable initialisers.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if path, name, ok := pkgFuncCallee(p.Pkg.Info, call); ok {
				if why, bad := forbiddenCall(path, name); bad {
					p.Reportf(call.Pos(), "%s %s; thread a seeded *rand.Rand or sim.Time instead", renderExpr(p.Fset, call.Fun), why)
				}
			}
			return true
		})
		// Map-iteration-order leaks: per function scope, so the
		// collect-then-sort check looks at the right statements.
		funcBodies(f, func(body *ast.BlockStmt) {
			walkShallow(body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				switch p.Pkg.Info.TypeOf(rng.X).Underlying().(type) {
				case *types.Map:
					checkMapRange(p, body, rng)
				case *types.Chan:
					checkChanRange(p, body, rng)
				}
				return true
			})
		})
	}
}

// pkgFuncCallee resolves a call to a package-level function (not a
// method), returning the package import path and function name.
func pkgFuncCallee(info *types.Info, call *ast.CallExpr) (path, name string, ok bool) {
	fn := calleeFunc(info, call.Fun)
	if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// checkMapRange flags the map-iteration shapes whose output depends on Go's
// randomised map order. fnBody is the enclosing function body (the scope of
// the sorted-later check).
func checkMapRange(p *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	info := p.Pkg.Info
	loopVars := rangeVars(info, rng)
	selection := false
	walkShallow(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// A nested map range gets its own visit; sends/appends in a
			// nested non-map range are still inside this map iteration,
			// so keep descending either way.
			if _, isMap := info.TypeOf(n.X).Underlying().(*types.Map); isMap {
				return false
			}
		case *ast.SendStmt:
			p.Reportf(n.Pos(), "channel send inside map iteration: emission order follows Go's randomised map order")
		case *ast.AssignStmt:
			reportUnsortedAppends(p, fnBody, rng, n, "append to %s inside map iteration leaks Go's randomised map order; collect then sort, or iterate sorted keys")
			if assignsLoopDerived(info, n, loopVars, rng) {
				selection = true
			}
		}
		return true
	})
	if selection && rangeHasBreak(rng) {
		p.Reportf(rng.Pos(), "break after assigning a map element to an outer variable selects an arbitrary element; iterate fully and pick a deterministic winner")
	}
}

// rangeVars returns the objects of the range statement's key/value vars.
func rangeVars(info *types.Info, rng *ast.RangeStmt) []types.Object {
	var out []types.Object
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				out = append(out, obj)
			} else if obj := info.Uses[id]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// rangeHasBreak reports whether the range body contains a break binding to
// the range loop itself (not to a nested loop, switch, or select).
func rangeHasBreak(rng *ast.RangeStmt) bool {
	found := false
	walkShallow(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			return false
		case *ast.BranchStmt:
			if n.Tok.String() == "break" && n.Label == nil {
				found = true
			}
		}
		return true
	})
	return found
}

// assignsLoopDerived reports whether the assignment writes a value derived
// from the loop variables into a variable declared outside the loop.
func assignsLoopDerived(info *types.Info, as *ast.AssignStmt, loopVars []types.Object, rng *ast.RangeStmt) bool {
	if len(loopVars) == 0 {
		return false
	}
	rhsUsesLoop := false
	for _, rhs := range as.Rhs {
		ast.Inspect(rhs, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				obj := info.Uses[id]
				for _, lv := range loopVars {
					if obj == lv {
						rhsUsesLoop = true
					}
				}
			}
			return true
		})
	}
	if !rhsUsesLoop {
		return false
	}
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.Uses[id] // plain assignment to an existing var
		if obj == nil {
			continue
		}
		if obj.Pos() < rng.Pos() || obj.Pos() > rng.End() {
			return true
		}
	}
	return false
}

// reportUnsortedAppends flags `outer = append(outer, ...)` inside the range
// loop unless the enclosing function later sorts the slice; msg names the
// slice with %s.
func reportUnsortedAppends(p *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, as *ast.AssignStmt, msg string) {
	for _, obj := range outerAppendTargets(p.Pkg.Info, rng, as) {
		if !sortedAfter(p.Pkg.Info, fnBody, rng, obj) {
			p.Reportf(as.Pos(), msg, obj.Name())
		}
	}
}

// checkChanRange flags result collection in completion order: an append to
// an outer slice inside a range over a channel. A worker pool's results
// arrive in whatever order goroutines finish, so the collected slice bakes
// in scheduling. Indexed merges (res[s.i] = s.v) and per-iteration slices
// are untouched; collect-then-sort is sanctioned the same way it is for
// map ranges.
func checkChanRange(p *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	walkShallow(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			return false // gets its own visit from the function-body walk
		case *ast.AssignStmt:
			reportUnsortedAppends(p, fnBody, rng, n, "append to %s inside a channel range leaks goroutine completion order; write results by index (res[s.i] = v) or collect then sort")
		}
		return true
	})
}

// outerAppendTargets returns the objects of every `outer = append(outer, ...)`
// in the assignment whose target is declared outside the range loop.
func outerAppendTargets(info *types.Info, rng *ast.RangeStmt, as *ast.AssignStmt) []types.Object {
	var out []types.Object
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			continue
		}
		if b, isBuiltin := info.Uses[fn].(*types.Builtin); !isBuiltin || b.Name() != "append" {
			continue
		}
		target, ok := call.Args[0].(*ast.Ident)
		if !ok || i >= len(as.Lhs) {
			continue
		}
		lhs, ok := as.Lhs[i].(*ast.Ident)
		if !ok || lhs.Name != target.Name {
			continue
		}
		obj := info.Uses[target]
		if obj == nil {
			continue
		}
		// Declared inside the loop: scoped per iteration, harmless.
		if obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
			continue
		}
		out = append(out, obj)
	}
	return out
}

// sortedAfter reports whether, after the range loop, the enclosing function
// sorts the collected variable — the collect-then-sort idiom.
func sortedAfter(info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		if !sortingCall(info, call) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
				return true
			})
		}
		return true
	})
	return found
}

// sortFuncs are the sort and slices functions that order their argument.
var sortFuncs = map[string]bool{
	"sort.Sort": true, "sort.Stable": true, "sort.Slice": true, "sort.SliceStable": true,
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// sortingCall reports whether call is a sort: one of sortFuncs, or a
// same-package helper whose name starts with "sort" (sortInts,
// sortFindings).
func sortingCall(info *types.Info, call *ast.CallExpr) bool {
	path, name, ok := pkgFuncCallee(info, call)
	_, local := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && (sortFuncs[path+"."+name] || local && strings.HasPrefix(name, "sort"))
}
