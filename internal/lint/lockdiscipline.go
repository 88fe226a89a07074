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
//  2. while a mutex is held, the function must not perform a channel send
//     or call into the rpc client — both can block indefinitely (a full
//     channel, a dead peer behind retries), turning a mutex into a
//     system-wide stall. The rpc package itself is exempt from the client
//     half of rule 2: serialising calls on the connection mutex is its
//     documented design.
//
// The held region is computed syntactically: from the Lock statement to
// the first matching Unlock in source order, or to the end of the function
// when the Unlock is deferred. Nested function literals are skipped —
// their execution time is not the lock holder's.
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
		// Rule 2: scan the held region for blocking operations.
		start := lock.call.End()
		end := body.End()
		if directUnlock != nil {
			end = directUnlock.call.Pos()
		}
		checkHeldRegion(p, body, lock, start, end)
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
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// checkHeldRegion flags blocking operations between start and end.
func checkHeldRegion(p *Pass, body *ast.BlockStmt, lock mutexOp, start, end token.Pos) {
	info := p.Pkg.Info
	walkShallow(body, func(n ast.Node) bool {
		if n == nil || n.Pos() < start || n.Pos() >= end {
			// Still descend: a block spanning the region boundary
			// contains nodes inside it.
			return true
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			p.Reportf(n.Pos(), "channel send while %s is held can block every other holder; release the mutex first", lock.recv)
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && isRPCClient(s.Recv(), p.Cfg.rpcClientPath()) && p.Pkg.Path != p.Cfg.rpcClientPath() {
					p.Reportf(n.Pos(), "rpc client call while %s is held can stall on the network for the full retry budget; release the mutex first", lock.recv)
					// The direct rule covered this call; the transitive
					// rule would only restate it.
					return true
				}
			}
			checkHeldRegionTransitive(p, lock, n)
		}
		return true
	})
}

// rpcClientPath is the module's rpc package, whose Client blocks on the
// network (dial, retries) and so is forbidden under a held mutex elsewhere.
func (c *Config) rpcClientPath() string {
	if c == nil || c.Module == "" {
		return "swift/internal/rpc"
	}
	return c.Module + "/internal/rpc"
}

// isRPCClient reports whether t is the rpc package's Client.
func isRPCClient(t types.Type, rpcClientPath string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == rpcClientPath && obj.Name() == "Client"
}

// renderExpr prints an expression as source text (receiver identity key).
func renderExpr(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}
