package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// This file is swiftvet's whole-program layer: a module-wide call graph
// over every loaded package plus one per-function summary computed
// bottom-up over the graph — may-block, with a witness chain — so
// lockdiscipline's held-region rule sees through helper functions instead
// of stopping at the first call boundary.
//
// The graph is conservative but explicit about its boundaries:
//
//   - static calls and method calls resolve to their *types.Func and are
//     keyed by FullName, which is identical whether the function is seen
//     from its defining package's type-check or through export data;
//   - method calls through a module-declared *sealed* interface (one with
//     an unexported method — the same closed-sum marker the exhaustive
//     analyzer uses) devirtualize to every implementing type's method;
//     open interfaces and func-typed fields are an analysis boundary and
//     produce no edge;
//   - a function value that is merely referenced (assigned, passed,
//     stored) is assumed to be eventually called and gets an edge —
//     conservative tracking of laundering through variables;
//   - a `go` statement's callee gets no edge: the spawner does not wait
//     for it, so nothing it does can block the spawner;
//   - function literals are their own nodes, charged to the enclosing
//     function by an edge unless they are spawned.

// FuncID names one function across the whole program: (*types.Func).
// FullName() for declared functions and methods, "<parent>$litN" for the
// N'th function literal inside parent.
type FuncID string

// edge is one call-graph edge, recorded at its source position.
type edge struct {
	callee FuncID
	pos    token.Pos
}

// siteFact is one direct may-block operation inside a function.
type siteFact struct {
	pos  token.Pos
	what string
}

// funcNode is one function in the program graph.
type funcNode struct {
	id   FuncID
	pkg  *Package
	disp string // compact display name for witness chains
	body *ast.BlockStmt

	edges      []edge
	blockFacts []siteFact // may-block operations, in source order
}

// witness is one function's entry in the may-block table: dist counts
// call hops to the nearest direct fact, via/site say which edge to follow
// to get there, what carries the terminal description. dist 0 means the
// fact is in this very function at site.
type witness struct {
	dist int
	what string
	site token.Pos
	via  FuncID
}

// Program is the whole-program view lockdiscipline's held-region rule
// reads: every function node and the may-block table.
type Program struct {
	fset   *token.FileSet
	cfg    *Config
	nodes  map[FuncID]*funcNode
	ids    []FuncID // sorted — the deterministic iteration order
	byBody map[*ast.BlockStmt]*funcNode

	blockTaint map[FuncID]*witness
}

// buildProgram constructs the graph and computes the summary. It is
// deterministic: nodes are visited in sorted-ID order, edges in source
// order, and witness selection always prefers the fewest hops, then the
// first edge in source order.
func buildProgram(fset *token.FileSet, pkgs []*Package, cfg *Config) *Program {
	prog := &Program{
		fset:   fset,
		cfg:    cfg,
		nodes:  make(map[FuncID]*funcNode),
		byBody: make(map[*ast.BlockStmt]*funcNode),
	}
	for _, pkg := range pkgs {
		prog.addPackage(pkg)
	}
	for _, id := range prog.ids {
		prog.scanNode(prog.nodes[id])
	}
	// scanNode appends literal nodes; re-sort so every later pass walks
	// the full node set in one deterministic order.
	prog.ids = prog.ids[:0]
	for id := range prog.nodes {
		prog.ids = append(prog.ids, id)
	}
	sort.Slice(prog.ids, func(i, j int) bool { return prog.ids[i] < prog.ids[j] })

	prog.propagate()
	return prog
}

// addPackage creates nodes for every declared function in the package's
// production sources. Duplicate IDs (multiple init functions) get a
// deterministic #n suffix.
func (p *Program) addPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			id := FuncID(obj.FullName())
			for n := 2; ; n++ {
				if _, taken := p.nodes[id]; !taken {
					break
				}
				id = FuncID(fmt.Sprintf("%s#%d", obj.FullName(), n))
			}
			node := &funcNode{
				id:   id,
				pkg:  pkg,
				disp: p.shorten(obj.FullName()),
				body: fd.Body,
			}
			p.nodes[id] = node
			p.byBody[fd.Body] = node
			p.ids = append(p.ids, id)
		}
	}
	sort.Slice(p.ids, func(i, j int) bool { return p.ids[i] < p.ids[j] })
}

// shorten compacts a FullName for witness display by trimming the module
// path prefix: "(*swift/internal/core.Controller).emit" -> "(*core.Controller).emit".
func (p *Program) shorten(full string) string {
	if p.cfg == nil || p.cfg.Module == "" {
		return full
	}
	s := strings.ReplaceAll(full, p.cfg.Module+"/internal/", "")
	return strings.ReplaceAll(s, p.cfg.Module+"/", "")
}

// scanNode walks one function body recording edges and direct facts.
// Function literals become child nodes (scanned recursively); the walk
// never descends into them from the parent.
func (p *Program) scanNode(n *funcNode) {
	s := &nodeScan{prog: p, node: n, info: n.pkg.Info}
	s.walk(n.body)
}

// nodeScan carries one function's walk state.
type nodeScan struct {
	prog   *Program
	node   *funcNode
	info   *types.Info
	litSeq int
	inComm map[ast.Node]bool // a select's comm ops: the select is the fact
}

// walk visits one node, recording facts and edges, and descends into its
// children unless a handler below already did.
func (s *nodeScan) walk(n ast.Node) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.FuncLit:
		s.addEdge(s.child(n), n.Pos())
		return
	case *ast.GoStmt:
		s.spawn(n.Call)
		return
	case *ast.SelectStmt:
		s.selectStmt(n)
		return
	case *ast.RangeStmt:
		if tv, ok := s.info.Types[n.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				s.blockFact(n.Pos(), "range over channel")
			}
		}
	case *ast.SendStmt:
		if !s.inComm[n] {
			s.blockFact(n.Pos(), "channel send")
		}
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !s.inComm[n] {
			s.blockFact(n.Pos(), "channel receive")
		}
	case *ast.CallExpr:
		s.call(n)
		return
	case *ast.SelectorExpr:
		s.ref(n)
		s.walk(n.X)
		return
	case *ast.Ident:
		s.ref(n)
		return
	}
	// Generic descent for everything not fully handled above.
	children(n, s.walk)
}

// blockFact records a may-block operation in the function being scanned.
func (s *nodeScan) blockFact(pos token.Pos, what string) {
	s.node.blockFacts = append(s.node.blockFacts, siteFact{pos: pos, what: what})
}

// child registers a function literal as its own node and returns its ID;
// the caller decides whether the parent gets an edge to it.
func (s *nodeScan) child(lit *ast.FuncLit) FuncID {
	s.litSeq++
	id := FuncID(fmt.Sprintf("%s$lit%d", s.node.id, s.litSeq))
	node := &funcNode{
		id:   id,
		pkg:  s.node.pkg,
		disp: fmt.Sprintf("%s$%d", s.node.disp, s.litSeq),
		body: lit.Body,
	}
	s.prog.nodes[id] = node
	s.prog.byBody[lit.Body] = node
	s.prog.scanNode(node)
	return id
}

// spawn handles `go f(...)`: no edge to the callee (the spawner does not
// wait for it), normal walk of the arguments (they evaluate synchronously
// in the spawner).
func (s *nodeScan) spawn(call *ast.CallExpr) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		s.child(lit)
	} else {
		s.walkCalleeOperand(call.Fun)
	}
	for _, a := range call.Args {
		s.walk(a)
	}
}

// selectStmt records one fact for the whole select, none for its comm
// operations: a select without a default clause blocks until one of them
// is ready, and one with a default never blocks.
func (s *nodeScan) selectStmt(sel *ast.SelectStmt) {
	hasDefault := false
	if s.inComm == nil {
		s.inComm = make(map[ast.Node]bool)
	}
	for _, cl := range sel.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		switch comm := cc.Comm.(type) {
		case nil:
			hasDefault = true
		case *ast.ExprStmt:
			s.inComm[comm.X] = true
		case *ast.AssignStmt:
			s.inComm[comm.Rhs[0]] = true
		default:
			s.inComm[comm] = true
		}
	}
	if !hasDefault {
		s.blockFact(sel.Pos(), "select without default")
	}
	children(sel, s.walk)
}

// call handles one call expression (a conversion included, which resolves
// to no callee): edge resolution, per-callee facts, then the operands.
func (s *nodeScan) call(call *ast.CallExpr) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		s.addEdge(s.child(lit), lit.Pos())
	} else {
		s.directCallFacts(call)
		for _, callee := range s.resolve(call.Fun) {
			s.addEdge(callee, call.Pos())
		}
		s.walkCalleeOperand(call.Fun)
	}
	for _, a := range call.Args {
		s.walk(a)
	}
}

// directCallFacts classifies stdlib and rpc-client calls the graph cannot
// see into: mutex acquisitions and blocking waits.
func (s *nodeScan) directCallFacts(call *ast.CallExpr) {
	if path, name, ok := pkgFuncCallee(s.info, call); ok {
		if path == "time" && name == "Sleep" {
			s.blockFact(call.Pos(), "time.Sleep")
		}
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection := s.info.Selections[sel]
	if selection == nil {
		return
	}
	recv := selection.Recv()
	// A mutex acquisition waits for every other holder, so a mutex taken
	// under a mutex is the held-region rule's nested-lock case.
	if (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") && isSyncMutex(recv) {
		s.blockFact(call.Pos(), "acquisition of "+renderExpr(s.prog.fset, sel.X))
	}
	// sync.WaitGroup.Wait blocks until the group drains. sync.Cond.Wait is
	// deliberately NOT a blocking fact: it releases the very mutex the
	// caller holds, which is the one sanctioned way to sleep with a lock
	// "held".
	if sel.Sel.Name == "Wait" && isNamed(recv, "sync", "WaitGroup") {
		s.blockFact(call.Pos(), "sync.WaitGroup.Wait")
	}
	if isNamed(recv, s.prog.cfg.rpcClientPath(), "Client") {
		s.blockFact(call.Pos(), rpcClientCall)
	}
}

// walkCalleeOperand walks the receiver part of a call's Fun (which may
// itself contain calls) without re-registering the resolved callee as a
// bare function reference.
func (s *nodeScan) walkCalleeOperand(fun ast.Expr) {
	if sel, ok := ast.Unparen(fun).(*ast.SelectorExpr); ok {
		s.walk(sel.X)
	}
}

// ref records a conservative may-call edge for a function or method
// named as a value (assigned, passed, stored).
func (s *nodeScan) ref(e ast.Expr) {
	for _, callee := range s.resolve(e) {
		s.addEdge(callee, e.Pos())
	}
}

// addEdge appends one call edge.
func (s *nodeScan) addEdge(callee FuncID, pos token.Pos) {
	s.node.edges = append(s.node.edges, edge{callee: callee, pos: pos})
}

// resolve maps a callee expression to zero or more FuncIDs. Sealed
// module interfaces devirtualize to every implementation; everything
// unresolvable (func values, open interfaces, builtins) returns nil.
func (s *nodeScan) resolve(fun ast.Expr) []FuncID {
	fn := calleeFunc(s.info, fun)
	if fn == nil {
		return nil
	}
	if sel, ok := ast.Unparen(fun).(*ast.SelectorExpr); ok && s.info.Selections[sel] != nil {
		if recv := s.info.Selections[sel].Recv(); types.IsInterface(recv) {
			return s.devirtualize(recv, fn.Name())
		}
	}
	return []FuncID{FuncID(fn.FullName())}
}

// devirtualize resolves a method call through a module-declared sealed
// interface to the same concrete method every implementing type declares
// — the closed-sum knowledge the exhaustive analyzer already relies on.
// Open and unnamed interfaces return no edges (a declared analysis
// boundary).
func (s *nodeScan) devirtualize(recv types.Type, method string) []FuncID {
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !s.prog.cfg.inModule(named.Obj().Pkg().Path()) {
		return nil
	}
	iface := named.Underlying().(*types.Interface)
	if !isSealed(iface) {
		return nil
	}
	var out []FuncID
	for _, tn := range interfaceMembers(named, iface, s.node.pkg.Types) {
		m, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, named.Obj().Pkg(), method)
		if fn, ok := m.(*types.Func); ok {
			out = append(out, FuncID(fn.FullName()))
		}
	}
	return out
}

// isNamed reports whether t, possibly behind a pointer, is the named type
// path.name.
func isNamed(t types.Type, path, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}

// propagate computes the may-block table: dist-0 entries for every node
// with a direct fact, then Bellman-Ford sweeps over sorted IDs until
// stable.
func (p *Program) propagate() {
	taint := make(map[FuncID]*witness)
	for _, id := range p.ids {
		if fs := p.nodes[id].blockFacts; len(fs) > 0 {
			taint[id] = &witness{dist: 0, what: fs[0].what, site: fs[0].pos}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, id := range p.ids {
			cur := taint[id]
			if cur != nil && cur.dist == 0 {
				continue
			}
			for _, e := range p.nodes[id].edges {
				ct := taint[e.callee]
				if ct == nil {
					continue
				}
				cand := ct.dist + 1
				if cur == nil || cand < cur.dist {
					cur = &witness{dist: cand, what: ct.what, site: e.pos, via: e.callee}
					taint[id] = cur
					changed = true
				}
			}
		}
	}
	p.blockTaint = taint
}

// chain renders the witness path from id down to the terminal fact:
// "disp (file:line) -> ... -> terminal". The dist ordering guarantees
// termination even through recursion cycles.
func (p *Program) chain(id FuncID) []string {
	var out []string
	for cur := id; ; {
		w := p.blockTaint[cur]
		n := p.nodes[cur]
		if w == nil || n == nil {
			break
		}
		pos := p.fset.Position(w.site)
		out = append(out, fmt.Sprintf("%s (%s:%d)", n.disp, filepath.Base(pos.Filename), pos.Line))
		if w.via == "" {
			out = append(out, w.what)
			break
		}
		cur = w.via
	}
	return out
}

// chainFrom renders a witness chain that starts at the caller's specific
// call site (one explicit edge) and continues with the callee's own
// minimal chain — per-edge reporting with a shared tail.
func (p *Program) chainFrom(caller *funcNode, e edge) []string {
	pos := p.fset.Position(e.pos)
	out := []string{fmt.Sprintf("%s (%s:%d)", caller.disp, filepath.Base(pos.Filename), pos.Line)}
	return append(out, p.chain(e.callee)...)
}

// children calls fn for every direct child node of n, in source order.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}
