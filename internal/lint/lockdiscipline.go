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
// The held region is computed syntactically: from the Lock statement to
// the first matching Unlock in source order, or to the end of the function
// when the Unlock is deferred. Nested function literals are their own
// graph nodes; one that is called or passed inside the region counts as a
// call, one that is spawned with `go` does not.
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
		// Rule 1: some matching unlock must exist in this function.
		var directUnlock *mutexOp
		hasDeferred := false
		for i := range ops {
			u := &ops[i]
			if u.name != want || u.recv != lock.recv {
				continue
			}
			if u.deferred {
				hasDeferred = true
			} else if u.call.Pos() > lock.call.Pos() && (directUnlock == nil || u.call.Pos() < directUnlock.call.Pos()) {
				directUnlock = u
			}
		}
		if directUnlock == nil && !hasDeferred {
			p.Reportf(lock.call.Pos(), "%s.%s() without a matching %s in this function; release the mutex where it is taken", lock.recv, lock.name, want)
			continue
		}
		// Rule 2: nothing in the held region may block.
		start := lock.call.End()
		end := body.End()
		if directUnlock != nil {
			end = directUnlock.call.Pos()
		}
		checkHeldRegion(p, node, lock, start, end)
	}
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

// checkHeldRegion flags every may-block fact of n between start and end,
// and every edge in that stretch to a function that may block. A package-
// level function literal has no node; its held regions go unchecked.
func checkHeldRegion(p *Pass, n *funcNode, lock mutexOp, start, end token.Pos) {
	if n == nil {
		return
	}
	inRPC := p.Pkg.Path == p.Cfg.rpcClientPath()
	direct := make(map[token.Pos]bool)
	for _, f := range n.blockFacts {
		if f.pos < start || f.pos >= end || (inRPC && f.what == rpcClientCall) {
			continue
		}
		direct[f.pos] = true
		p.Reportf(f.pos, "%s while %s is held can block every other holder; release the mutex first", f.what, lock.recv)
	}
	for _, e := range n.edges {
		w := p.Prog.blockTaint[e.callee]
		if e.pos < start || e.pos >= end || w == nil || direct[e.pos] {
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
