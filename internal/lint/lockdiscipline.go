package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// LockDiscipline enforces two rules over sync.Mutex / sync.RWMutex usage
// in module packages:
//
//  1. a Lock/RLock call must have a matching Unlock/RUnlock (direct or
//     deferred) on the same receiver expression in the same function —
//     cross-function lock helpers hide the critical section from both
//     humans and this analyzer;
//  2. while a mutex is held, nothing may block: no channel send, receive
//     or range, no select without default, no WaitGroup.Wait or
//     time.Sleep, no rpc client call, and no second Lock/RLock — neither
//     in the function itself nor through any chain of synchronous calls
//     (the may-block summary of callgraph.go). A mutex is a leaf: nothing
//     that can take another mutex runs while one is held, which rules out
//     every lock-order inversion and every self-deadlock at once.
//
// The rpc package's own Client methods may call each other under the
// connection mutex — serialising calls on it is the client's design — so
// the rpc-client-call fact alone is not reported there.
//
// The held region follows the statement structure: it runs from the Lock
// through the statements after it, into nested blocks and out of the
// Lock's own block, and a matching Unlock ends it only for the statements
// after the Unlock in the Unlock's own block. So an early-return Unlock
// inside an if does not end the region for the code after the if, and a
// return reached inside the region is a rule-1 finding unless the Unlock
// is deferred. When it is deferred the region runs to the end of the
// function. Nested function literals are their own graph nodes; one that
// is called or passed inside the region counts as a call, one that is
// spawned with `go` does not.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Run:  runLockDiscipline,
}

// mutexOp is one Lock/Unlock-family call inside a function.
type mutexOp struct {
	call     *ast.CallExpr
	recv     string // rendered receiver expression, e.g. "e.mu"
	name     string // Lock, Unlock, RLock, RUnlock
	deferred bool
}

func runLockDiscipline(p *Pass) {
	if !p.Cfg.inModule(p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files {
		funcBodies(f, func(body *ast.BlockStmt) {
			checkLockFunc(p, body)
		})
	}
}

// unlockName maps an acquire to its release.
func unlockName(lock string) string {
	if lock == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

func checkLockFunc(p *Pass, body *ast.BlockStmt) {
	ops := collectMutexOps(p, body)
	if len(ops) == 0 {
		return
	}
	node := p.Prog.byBody[body]
	for _, lock := range ops {
		if lock.name != "Lock" && lock.name != "RLock" {
			continue
		}
		want := unlockName(lock.name)
		// Rule 1: a matching unlock must exist, and be reached on every
		// path unless it is deferred.
		unlocks := make(map[*ast.CallExpr]bool)
		hasDeferred := false
		for _, u := range ops {
			if u.name != want || u.recv != lock.recv {
				continue
			}
			if u.deferred {
				hasDeferred = true
			} else if u.call.Pos() > lock.call.Pos() {
				unlocks[u.call] = true
			}
		}
		if len(unlocks) == 0 && !hasDeferred {
			p.Reportf(lock.call.Pos(), "%s.%s() without a matching %s in this function; release the mutex where it is taken", lock.recv, lock.name, want)
			continue
		}
		r := heldRegion(body, lock.call, unlocks)
		if !hasDeferred {
			for _, ret := range r.returns {
				p.Reportf(ret, "return while %s is held skips its %s; release the mutex on every path", lock.recv, want)
			}
			if r.fallsOff {
				p.Reportf(lock.call.Pos(), "%s.%s() is still held where the function ends on some path; release the mutex on every path", lock.recv, lock.name)
			}
		}
		// Rule 2: nothing in the held region may block.
		checkHeldRegion(p, node, lock, r)
	}
}

// region is the code that runs while one Lock is held: the source from
// the Lock to end, less the holes — the rest of a nested list after an
// Unlock or a return in it. It also keeps the returns reached inside it
// and whether some path reaches the end of the function holding the mutex.
type region struct {
	lock     *ast.CallExpr
	unlocks  map[*ast.CallExpr]bool
	held     bool // the walk has passed the Lock
	end      token.Pos
	holes    [][2]token.Pos
	returns  []token.Pos
	fallsOff bool
}

// heldRegion walks body for the region of lock. A Lock that is not a
// statement of its own (a call inside an expression) is held to the end of
// the function.
func heldRegion(body *ast.BlockStmt, lock *ast.CallExpr, unlocks map[*ast.CallExpr]bool) *region {
	r := &region{lock: lock, unlocks: unlocks, end: body.End()}
	if stop := r.walk(body.List); stop.IsValid() {
		r.end = stop
	} else {
		r.fallsOff = r.held
	}
	return r
}

func (r *region) contains(pos token.Pos) bool {
	if pos < r.lock.End() || pos >= r.end {
		return false
	}
	for _, h := range r.holes {
		if h[0] <= pos && pos < h[1] {
			return false
		}
	}
	return true
}

// walk scans one statement list. Until it passes the Lock it only looks
// for it, descending into nested lists; once the Lock is held, it returns
// where the region stops in this list — at a matching Unlock, or after a
// return or a for loop without a condition — or NoPos when control runs
// off the end of the list still holding the mutex. A stop inside a list
// nested in the region is a hole, not the end: the statements after the
// nested one still run held.
func (r *region) walk(stmts []ast.Stmt) token.Pos {
	for _, s := range stmts {
		es, _ := s.(*ast.ExprStmt)
		if !r.held {
			if es != nil && es.X == r.lock {
				r.held = true
				continue
			}
			for _, inner := range nestedLists(s) {
				if stop := r.walk(inner); stop.IsValid() {
					return stop // the region ends in the Lock's own list
				}
				if r.held {
					break // the Lock's list ran off its end: go on after s
				}
			}
			continue
		}
		if es != nil {
			if call, ok := es.X.(*ast.CallExpr); ok && r.unlocks[call] {
				return s.Pos()
			}
		}
		if _, ok := s.(*ast.ReturnStmt); ok {
			r.returns = append(r.returns, s.Pos())
			return s.End()
		}
		for _, inner := range nestedLists(s) {
			if stop := r.walk(inner); stop.IsValid() {
				r.holes = append(r.holes, [2]token.Pos{stop, inner[len(inner)-1].End()})
			}
		}
		if f, ok := s.(*ast.ForStmt); ok && f.Cond == nil {
			return s.End()
		}
	}
	return token.NoPos
}

// nestedLists returns the statement lists directly inside s.
func nestedLists(s ast.Stmt) [][]ast.Stmt {
	var clauses *ast.BlockStmt
	switch s := s.(type) {
	case *ast.BlockStmt:
		return [][]ast.Stmt{s.List}
	case *ast.LabeledStmt:
		return nestedLists(s.Stmt)
	case *ast.IfStmt:
		if s.Else != nil {
			return [][]ast.Stmt{s.Body.List, {s.Else}}
		}
		return [][]ast.Stmt{s.Body.List}
	case *ast.ForStmt:
		return [][]ast.Stmt{s.Body.List}
	case *ast.RangeStmt:
		return [][]ast.Stmt{s.Body.List}
	case *ast.SwitchStmt:
		clauses = s.Body
	case *ast.TypeSwitchStmt:
		clauses = s.Body
	case *ast.SelectStmt:
		clauses = s.Body
	default:
		return nil
	}
	var out [][]ast.Stmt
	for _, c := range clauses.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			out = append(out, c.Body)
		case *ast.CommClause:
			out = append(out, c.Body)
		}
	}
	return out
}

// collectMutexOps finds every sync mutex Lock/Unlock-family call directly
// in the function body (not in nested literals).
func collectMutexOps(p *Pass, body *ast.BlockStmt) []mutexOp {
	info := p.Pkg.Info
	var ops []mutexOp
	add := func(call *ast.CallExpr, deferred bool) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		name := sel.Sel.Name
		switch name {
		case "Lock", "Unlock", "RLock", "RUnlock":
		default:
			return
		}
		selection := info.Selections[sel]
		if selection == nil || !isSyncMutex(selection.Recv()) {
			return
		}
		ops = append(ops, mutexOp{call: call, recv: renderExpr(p.Fset, sel.X), name: name, deferred: deferred})
	}
	walkShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			add(n.Call, true)
			return false
		case *ast.CallExpr:
			add(n, false)
		}
		return true
	})
	return ops
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isSyncMutex(t types.Type) bool {
	return isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex")
}

// rpcClientCall is the may-block fact of a call on the rpc Client.
const rpcClientCall = "rpc client call"

// checkHeldRegion flags every may-block fact of n inside r, and every edge
// in it to a function that may block. A package-level function literal has
// no node; its held regions go unchecked.
func checkHeldRegion(p *Pass, n *funcNode, lock mutexOp, r *region) {
	if n == nil {
		return
	}
	inRPC := p.Pkg.Path == p.Cfg.rpcClientPath()
	direct := make(map[token.Pos]bool)
	for _, f := range n.blockFacts {
		if !r.contains(f.pos) || (inRPC && f.what == rpcClientCall) {
			continue
		}
		direct[f.pos] = true
		p.Reportf(f.pos, "%s while %s is held can block every other holder; release the mutex first", f.what, lock.recv)
	}
	for _, e := range n.edges {
		w := p.Prog.blockTaint[e.callee]
		if !r.contains(e.pos) || w == nil || direct[e.pos] {
			continue // a direct finding at the call already covers it
		}
		p.reportWhy(e.pos, p.Prog.chainFrom(n, e),
			"call to %s while %s is held transitively reaches %s; release the mutex first (run swiftvet -why for the call chain)",
			p.Prog.nodes[e.callee].disp, lock.recv, w.what)
	}
}

// rpcClientPath is the module's rpc package, whose Client blocks on the
// network (dial, round trip) and so is forbidden under a held mutex
// elsewhere.
func (c *Config) rpcClientPath() string {
	if c == nil || c.Module == "" {
		return "swift/internal/rpc"
	}
	return c.Module + "/internal/rpc"
}

// renderExpr prints an expression as source text (receiver identity key).
func renderExpr(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}
