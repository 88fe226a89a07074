package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// This file holds the interprocedural rules built on the Program view
// from callgraph.go: the transitive half of determinism, the transitive
// half of lockdiscipline's held-region rule, and the whole-program
// analyzer lockorder.

// runDeterminismTransitive flags calls from determinism-scoped code into
// out-of-scope module functions that transitively read the wall clock or
// the global rand source — the laundering the per-package check cannot
// see. Calls to determinism-scoped callees are deliberately not flagged:
// the callee's own package gets the finding (direct or transitive), and
// fixing it there fixes every caller at once.
func runDeterminismTransitive(p *Pass) {
	if p.Prog == nil {
		return
	}
	for _, id := range p.Prog.nodesOf(p.Pkg) {
		n := p.Prog.nodes[id]
		for _, e := range n.edges {
			callee := p.Prog.nodes[e.callee]
			if callee == nil || p.Cfg.internalPath(callee.pkg.Path) {
				continue
			}
			w := p.Prog.clockTaint[e.callee]
			if w == nil {
				continue
			}
			why := p.Prog.chainFrom(p.Prog.clockTaint, n, e)
			p.reportWhy(e.pos, why,
				"call to %s transitively %s; thread a seeded *rand.Rand or sim.Time instead (run swiftvet -why for the call chain)",
				callee.disp, taintVerb(w.what))
		}
	}
}

// taintVerb compresses a terminal fact description into the transitive
// message: "time.Now (reads the wall clock)" -> "reads the wall clock".
func taintVerb(what string) string {
	if i := strings.IndexByte(what, '('); i >= 0 && strings.HasSuffix(what, ")") {
		return strings.TrimSuffix(what[i+1:], ")")
	}
	return "reaches " + what
}

// LockOrder reports cycles in the global lock-acquisition graph. An edge
// A->B means some function acquired a class-B mutex (directly or through
// its callees) while a class-A mutex was held; a strongly-connected
// component with two or more classes means two executions can acquire the
// same pair in opposite orders — a potential deadlock. Self-edges
// (nested acquisition of one class) are out of scope: whether they
// deadlock depends on instance identity, which a class-level graph cannot
// decide.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Run:  runLockOrder,
}

func runLockOrder(p *Pass) {
	if p.Prog == nil || !p.Cfg.inModule(p.Pkg.Path) {
		return
	}
	for _, cyc := range p.Prog.cycles {
		why := make([]string, 0, len(cyc.edges))
		for _, e := range cyc.edges {
			pos := p.Fset.Position(e.pos)
			why = append(why, fmt.Sprintf("%s -> %s (%s:%d)",
				p.Prog.shortKey(e.src), p.Prog.shortKey(e.dst), baseName(pos.Filename), pos.Line))
		}
		for _, e := range cyc.edges {
			if e.pkgPath != p.Pkg.Path {
				continue
			}
			suffix := ""
			if e.via != "" {
				if callee := p.Prog.nodes[e.via]; callee != nil {
					suffix = fmt.Sprintf(" via call to %s", callee.disp)
				}
			}
			p.reportWhy(e.pos, why,
				"acquiring %s while %s is held closes a lock-order cycle {%s}%s; pick one global acquisition order",
				p.Prog.shortKey(e.dst), p.Prog.shortKey(e.src), joinKeys(p.Prog, cyc.keys), suffix)
		}
	}
}

func joinKeys(prog *Program, keys []lockKey) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = prog.shortKey(k)
	}
	return strings.Join(parts, ", ")
}

// checkHeldRegionTransitive extends lockdiscipline's held-region rule
// through the call graph: a call made while a mutex is held must not
// reach a may-block operation (channel op, select without default,
// WaitGroup.Wait, time.Sleep, rpc client call) through any chain of
// synchronous calls. The rpc package is exempt — serialising calls on
// its connection mutex is its documented design.
func checkHeldRegionTransitive(p *Pass, lock mutexOp, call *ast.CallExpr) {
	if p.Prog == nil || p.Pkg.Path == p.Cfg.rpcClientPath() {
		return
	}
	node := p.Prog.nodeEnclosing(p.Pkg, call.Pos())
	if node == nil {
		return
	}
	for _, callee := range p.Prog.calleesOf(p.Pkg, node, call) {
		calleeNode := p.Prog.nodes[callee]
		w := p.Prog.blockTaint[callee]
		if calleeNode == nil || w == nil {
			continue
		}
		why := p.Prog.chainFrom(p.Prog.blockTaint, node, edge{callee: callee, pos: call.Pos()})
		p.reportWhy(call.Pos(), why,
			"call to %s while %s is held transitively reaches %s; release the mutex first (run swiftvet -why for the call chain)",
			calleeNode.disp, lock.recv, w.what)
	}
}
