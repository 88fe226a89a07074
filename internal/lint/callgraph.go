package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is swiftvet's whole-program layer: a module-wide call graph
// over every loaded package plus per-function summaries computed bottom-up
// over the graph, so the interprocedural analyzers (transitive
// determinism, held-lock blocking, lockorder) see through helper
// functions instead of stopping at the first call boundary.
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
//     stored) is assumed to be eventually called and gets a synchronous
//     edge — conservative tracking of laundering through variables;
//   - a `go` statement's callee gets an asynchronous edge: its effects
//     count for determinism (a spawned goroutine reading the clock still
//     breaks replay) but not for may-block (the spawner does not wait);
//   - function literals are their own nodes, charged to the enclosing
//     function by the same sync/async edge rules.
//
// Summaries are two boolean taints with deterministic witness chains
// (clock/rand, may-block) plus the transitive set of mutex classes a
// function may acquire.

// FuncID names one function across the whole program: (*types.Func).
// FullName() for declared functions and methods, "<parent>$litN" for the
// N'th function literal inside parent.
type FuncID string

// edge is one call-graph edge, recorded at its source position.
type edge struct {
	callee FuncID
	pos    token.Pos
	async  bool // `go` spawn: counts for determinism, not for may-block
}

// siteFact is one direct summary-relevant operation inside a function.
type siteFact struct {
	pos  token.Pos
	what string
}

// lockKey classifies a mutex for cross-function identity: field mutexes
// by owning named type ("pkg/path.Type.field"), variable mutexes by
// declaration scope. Two *instances* of the same class are one key — the
// analysis is class-based, like lock-order analysis everywhere.
type lockKey string

// acquire is one direct Lock/RLock on a classified mutex.
type acquire struct {
	key lockKey
	pos token.Pos
}

// region is one syntactically-held stretch of a classified mutex: from
// the Lock to its first matching Unlock, or to the end of the function
// when the Unlock is deferred (or missing — rule 1 reports that
// separately; the region still feeds the lock graph).
type region struct {
	key        lockKey
	recv       string // rendered receiver for messages, e.g. "e.mu"
	start, end token.Pos
	read       bool // RLock region
}

// funcNode is one function in the program graph.
type funcNode struct {
	id   FuncID
	pkg  *Package
	disp string    // compact display name for witness chains
	pos  token.Pos // declaration (or literal) position
	body *ast.BlockStmt

	edges []edge

	clockFacts []siteFact // wall-clock / global-rand reads
	blockFacts []siteFact // may-block operations

	acquires []acquire
	regions  []region
}

// witness is one function's entry in a taint table: dist counts call hops
// to the nearest direct fact, via/site say which edge to follow to get
// there, what carries the terminal description. dist 0 means the fact is
// in this very function at site.
type witness struct {
	dist int
	what string
	site token.Pos
	via  FuncID
}

// lockEdge is one arc of the global lock-acquisition graph: while a
// mutex of class src was held, a mutex of class dst was acquired — either
// directly or transitively through via.
type lockEdge struct {
	src, dst lockKey
	pos      token.Pos
	pkgPath  string
	via      FuncID // "" when the acquisition is in the holding function
}

// Program is the whole-program view shared by the interprocedural
// analyzers: every function node, the two taint tables, the transitive
// acquire sets, and the global lock graph.
type Program struct {
	fset  *token.FileSet
	cfg   *Config
	nodes map[FuncID]*funcNode
	ids   []FuncID // sorted — the deterministic iteration order
	lits  map[*ast.FuncLit]FuncID

	clockTaint map[FuncID]*witness
	blockTaint map[FuncID]*witness
	acqSets    map[FuncID]map[lockKey]bool

	lockEdges []lockEdge
	cycles    []lockCycle
}

// lockCycle is one strongly-connected component of the lock graph with
// more than one class: a potential deadlock.
type lockCycle struct {
	keys  []lockKey // sorted
	edges []lockEdge
}

// buildProgram constructs the graph and computes every summary. It is
// deterministic: nodes are visited in sorted-ID order, edges in source
// order, and witness selection always prefers the fewest hops, then the
// first edge in source order.
func buildProgram(fset *token.FileSet, pkgs []*Package, cfg *Config) *Program {
	prog := &Program{
		fset:  fset,
		cfg:   cfg,
		nodes: make(map[FuncID]*funcNode),
		lits:  make(map[*ast.FuncLit]FuncID),
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

	prog.clockTaint = prog.propagate(func(n *funcNode) []siteFact { return n.clockFacts }, true)
	prog.blockTaint = prog.propagate(func(n *funcNode) []siteFact { return n.blockFacts }, false)
	prog.computeAcquireSets()
	prog.buildLockGraph()
	prog.findLockCycles()
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
				pos:  fd.Pos(),
				body: fd.Body,
			}
			p.nodes[id] = node
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
	n.acquires, n.regions = p.collectLockRegions(n)
}

// nodeScan carries one function's walk state.
type nodeScan struct {
	prog    *Program
	node    *funcNode
	info    *types.Info
	litSeq  int
	nonComm map[ast.Node]bool // comm ops of a defaulted select: non-blocking
}

// walk visits one node, recording facts and edges, and descends into its
// children unless a handler below already did.
func (s *nodeScan) walk(n ast.Node) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.FuncLit:
		s.child(n, false)
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
		if !s.nonComm[n] {
			s.blockFact(n.Pos(), "channel send")
		}
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !s.nonComm[n] {
			s.blockFact(n.Pos(), "channel receive")
		}
	case *ast.CallExpr:
		s.call(n)
		return
	case *ast.SelectorExpr:
		s.funcRef(n, n.Pos())
		return
	case *ast.Ident:
		s.identRef(n)
		return
	}
	// Generic descent for everything not fully handled above.
	children(n, s.walk)
}

// blockFact records a may-block operation in the function being scanned.
func (s *nodeScan) blockFact(pos token.Pos, what string) {
	s.node.blockFacts = append(s.node.blockFacts, siteFact{pos: pos, what: what})
}

// child registers a function literal as its own node and charges it to
// the parent through a sync (or async, for go-spawned) edge.
func (s *nodeScan) child(lit *ast.FuncLit, async bool) {
	s.litSeq++
	id := FuncID(fmt.Sprintf("%s$lit%d", s.node.id, s.litSeq))
	node := &funcNode{
		id:   id,
		pkg:  s.node.pkg,
		disp: fmt.Sprintf("%s$%d", s.node.disp, s.litSeq),
		pos:  lit.Pos(),
		body: lit.Body,
	}
	s.prog.nodes[id] = node
	s.prog.lits[lit] = id
	s.addEdge(id, lit.Pos(), async)
	s.prog.scanNode(node)
}

// spawn handles `go f(...)`: async edge to the callee, normal walk of the
// arguments (they evaluate synchronously in the spawner).
func (s *nodeScan) spawn(call *ast.CallExpr) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		s.child(lit, true)
	} else {
		for _, callee := range s.resolve(call.Fun) {
			s.addEdge(callee, call.Pos(), true)
		}
		s.walkCalleeOperand(call.Fun)
	}
	for _, a := range call.Args {
		s.walk(a)
	}
}

// selectStmt records blocking unless the select carries a default clause,
// in which case its comm operations are non-blocking by construction.
func (s *nodeScan) selectStmt(sel *ast.SelectStmt) {
	hasDefault := false
	for _, cl := range sel.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		s.blockFact(sel.Pos(), "select without default")
	} else {
		if s.nonComm == nil {
			s.nonComm = make(map[ast.Node]bool)
		}
		for _, cl := range sel.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
				s.nonComm[cc.Comm] = true
				if es, ok := cc.Comm.(*ast.ExprStmt); ok {
					s.nonComm[es.X] = true
				}
				if as, ok := cc.Comm.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
					s.nonComm[as.Rhs[0]] = true
				}
			}
		}
	}
	children(sel, s.walk)
}

// call handles one call expression (a conversion included, which resolves
// to no callee): edge resolution, per-callee facts, then the operands.
func (s *nodeScan) call(call *ast.CallExpr) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		s.child(lit, false)
	} else {
		s.directCallFacts(call)
		for _, callee := range s.resolve(call.Fun) {
			s.addEdge(callee, call.Pos(), false)
		}
		s.walkCalleeOperand(call.Fun)
	}
	for _, a := range call.Args {
		s.walk(a)
	}
}

// directCallFacts classifies stdlib and rpc-client calls the graph cannot
// see into: forbidden clock/rand reads and blocking waits.
func (s *nodeScan) directCallFacts(call *ast.CallExpr) {
	if path, name, ok := pkgFuncCallee(s.info, call); ok {
		full := path + "." + name
		if why, bad := forbiddenCalls[full]; bad {
			s.node.clockFacts = append(s.node.clockFacts, siteFact{pos: call.Pos(), what: fmt.Sprintf("%s.%s (%s)", pkgBase(path), name, why)})
		}
		if full == "time.Sleep" {
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
	// sync.WaitGroup.Wait blocks until the group drains. sync.Cond.Wait is
	// deliberately NOT a blocking fact: it releases the very mutex the
	// caller holds, which is the one sanctioned way to sleep with a lock
	// "held".
	if sel.Sel.Name == "Wait" && isSyncType(recv, "WaitGroup") {
		s.blockFact(call.Pos(), "sync.WaitGroup.Wait")
	}
	if isRPCClient(recv, s.prog.cfg.rpcClientPath()) {
		s.blockFact(call.Pos(), "rpc client call")
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

// identRef records a conservative may-call edge for a function named as a
// value (assigned, passed, stored).
func (s *nodeScan) identRef(id *ast.Ident) {
	fn, ok := s.info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	s.addEdge(FuncID(fn.FullName()), id.Pos(), false)
}

// funcRef records method-value and qualified-function references.
func (s *nodeScan) funcRef(sel *ast.SelectorExpr, pos token.Pos) {
	for _, callee := range s.resolve(sel) {
		s.addEdge(callee, pos, false)
	}
	s.walk(sel.X)
}

// addEdge appends one call edge.
func (s *nodeScan) addEdge(callee FuncID, pos token.Pos, async bool) {
	s.node.edges = append(s.node.edges, edge{callee: callee, pos: pos, async: async})
}

// resolve maps a callee expression to zero or more FuncIDs. Sealed
// module interfaces devirtualize to every implementation; everything
// unresolvable (func values, open interfaces, builtins) returns nil.
func (s *nodeScan) resolve(fun ast.Expr) []FuncID {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		if fn, ok := s.info.Uses[fun].(*types.Func); ok {
			return []FuncID{FuncID(fn.FullName())}
		}
	case *ast.SelectorExpr:
		if selection := s.info.Selections[fun]; selection != nil {
			if fn, ok := selection.Obj().(*types.Func); ok {
				recv := selection.Recv()
				if ptr, isPtr := recv.(*types.Pointer); isPtr {
					recv = ptr.Elem()
				}
				if named, isNamed := recv.(*types.Named); isNamed {
					if iface, isIface := named.Underlying().(*types.Interface); isIface {
						return s.devirtualize(named, iface, fun.Sel.Name)
					}
				}
				if _, isIface := recv.Underlying().(*types.Interface); isIface {
					return nil // unnamed/open interface: boundary
				}
				return []FuncID{FuncID(fn.FullName())}
			}
			return nil
		}
		if fn, ok := s.info.Uses[fun.Sel].(*types.Func); ok {
			return []FuncID{FuncID(fn.FullName())}
		}
	}
	return nil
}

// devirtualize resolves a method call through a module-declared sealed
// interface to the same concrete method every implementing type declares
// — the closed-sum knowledge the exhaustive analyzer already relies on.
// Open interfaces return no edges (a declared analysis boundary).
func (s *nodeScan) devirtualize(named *types.Named, iface *types.Interface, method string) []FuncID {
	obj := named.Obj()
	if obj.Pkg() == nil || !s.prog.cfg.inModule(obj.Pkg().Path()) || !isSealed(iface) {
		return nil
	}
	scopes := []*types.Scope{obj.Pkg().Scope()}
	if s.node.pkg.Types != nil && s.node.pkg.Types != obj.Pkg() {
		scopes = append(scopes, s.node.pkg.Types.Scope())
	}
	var out []FuncID
	seen := make(map[FuncID]bool)
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
			if !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(t))
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj()
				if m.Name() != method {
					continue
				}
				if fn, isFn := m.(*types.Func); isFn {
					id := FuncID(fn.FullName())
					if !seen[id] {
						seen[id] = true
						out = append(out, id)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// isSyncType reports whether t is the named sync package type (possibly
// behind a pointer).
func isSyncType(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// propagate computes one taint table: dist-0 entries for every node with
// a direct fact, then Bellman-Ford sweeps over sorted IDs until stable.
// withAsync controls whether `go`-spawn edges conduct the taint.
func (p *Program) propagate(facts func(*funcNode) []siteFact, withAsync bool) map[FuncID]*witness {
	taint := make(map[FuncID]*witness)
	for _, id := range p.ids {
		n := p.nodes[id]
		if fs := facts(n); len(fs) > 0 {
			first := fs[0]
			for _, f := range fs[1:] {
				if f.pos < first.pos {
					first = f
				}
			}
			taint[id] = &witness{dist: 0, what: first.what, site: first.pos}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, id := range p.ids {
			n := p.nodes[id]
			cur := taint[id]
			if cur != nil && cur.dist == 0 {
				continue
			}
			for _, e := range n.edges {
				if e.async && !withAsync {
					continue
				}
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
	return taint
}

// Chain renders the witness path from id down to the terminal fact:
// "disp (file:line) -> ... -> terminal". The dist ordering guarantees
// termination even through recursion cycles.
func (p *Program) chain(taint map[FuncID]*witness, id FuncID) []string {
	var out []string
	for cur := id; ; {
		w := taint[cur]
		n := p.nodes[cur]
		if w == nil || n == nil {
			break
		}
		pos := p.fset.Position(w.site)
		out = append(out, fmt.Sprintf("%s (%s:%d)", n.disp, baseName(pos.Filename), pos.Line))
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
func (p *Program) chainFrom(taint map[FuncID]*witness, caller *funcNode, e edge) []string {
	pos := p.fset.Position(e.pos)
	out := []string{fmt.Sprintf("%s (%s:%d)", caller.disp, baseName(pos.Filename), pos.Line)}
	return append(out, p.chain(taint, e.callee)...)
}

func baseName(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// computeAcquireSets runs the set-union fixpoint for transitive mutex
// acquisition: acq(f) = direct(f) ∪ acq(g) for every synchronous callee g.
func (p *Program) computeAcquireSets() {
	p.acqSets = make(map[FuncID]map[lockKey]bool)
	for _, id := range p.ids {
		set := make(map[lockKey]bool)
		for _, a := range p.nodes[id].acquires {
			set[a.key] = true
		}
		p.acqSets[id] = set
	}
	for changed := true; changed; {
		changed = false
		for _, id := range p.ids {
			set := p.acqSets[id]
			for _, e := range p.nodes[id].edges {
				if e.async {
					continue
				}
				callee := p.acqSets[e.callee]
				for _, k := range sortedLockKeys(callee) {
					if !set[k] {
						set[k] = true
						changed = true
					}
				}
			}
		}
	}
}

func sortedLockKeys(set map[lockKey]bool) []lockKey {
	keys := make([]lockKey, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// buildLockGraph derives the global acquisition-order edges: inside every
// held region, direct acquisitions and transitive acquisitions through
// synchronous calls of other classes become src->dst arcs.
func (p *Program) buildLockGraph() {
	for _, id := range p.ids {
		n := p.nodes[id]
		for _, r := range n.regions {
			for _, a := range n.acquires {
				if a.key != r.key && a.pos > r.start && a.pos < r.end {
					p.lockEdges = append(p.lockEdges, lockEdge{src: r.key, dst: a.key, pos: a.pos, pkgPath: n.pkg.Path})
				}
			}
			for _, e := range n.edges {
				if e.async || e.pos <= r.start || e.pos >= r.end {
					continue
				}
				for _, k := range sortedLockKeys(p.acqSets[e.callee]) {
					if k != r.key {
						p.lockEdges = append(p.lockEdges, lockEdge{src: r.key, dst: k, pos: e.pos, pkgPath: n.pkg.Path, via: e.callee})
					}
				}
			}
		}
	}
	sort.Slice(p.lockEdges, func(i, j int) bool {
		a, b := p.lockEdges[i], p.lockEdges[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.pos < b.pos
	})
}

// findLockCycles condenses the lock graph into strongly-connected
// components; any component with two or more classes is a potential
// deadlock. Same-class self-edges are excluded: nested acquisition of two
// *instances* of one class is instance-order dependent, which a class-
// level graph cannot decide.
func (p *Program) findLockCycles() {
	adj := make(map[lockKey]map[lockKey]bool)
	nodes := make(map[lockKey]bool)
	for _, e := range p.lockEdges {
		nodes[e.src], nodes[e.dst] = true, true
		if e.src == e.dst {
			continue
		}
		if adj[e.src] == nil {
			adj[e.src] = make(map[lockKey]bool)
		}
		adj[e.src][e.dst] = true
	}
	keys := sortedLockKeys(nodes)
	// Kosaraju over the sorted key universe: forward order, then reverse
	// graph assignment — deterministic and iteration-order free.
	var order []lockKey
	visited := make(map[lockKey]bool)
	var dfs1 func(k lockKey)
	dfs1 = func(k lockKey) {
		visited[k] = true
		for _, nxt := range sortedLockKeys(adj[k]) {
			if !visited[nxt] {
				dfs1(nxt)
			}
		}
		order = append(order, k)
	}
	for _, k := range keys {
		if !visited[k] {
			dfs1(k)
		}
	}
	radj := make(map[lockKey]map[lockKey]bool)
	for _, e := range p.lockEdges {
		if e.src == e.dst {
			continue
		}
		if radj[e.dst] == nil {
			radj[e.dst] = make(map[lockKey]bool)
		}
		radj[e.dst][e.src] = true
	}
	comp := make(map[lockKey]int)
	for k := range nodes {
		comp[k] = -1
	}
	ncomp := 0
	var dfs2 func(k lockKey, c int)
	dfs2 = func(k lockKey, c int) {
		comp[k] = c
		for _, nxt := range sortedLockKeys(radj[k]) {
			if comp[nxt] == -1 {
				dfs2(nxt, c)
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		if comp[order[i]] == -1 {
			dfs2(order[i], ncomp)
			ncomp++
		}
	}
	members := make([][]lockKey, ncomp)
	for _, k := range keys {
		members[comp[k]] = append(members[comp[k]], k)
	}
	for _, m := range members {
		if len(m) < 2 {
			continue
		}
		sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
		cyc := lockCycle{keys: m}
		in := make(map[lockKey]bool)
		for _, k := range m {
			in[k] = true
		}
		for _, e := range p.lockEdges {
			if e.src != e.dst && in[e.src] && in[e.dst] {
				cyc.edges = append(cyc.edges, e)
			}
		}
		p.cycles = append(p.cycles, cyc)
	}
	sort.Slice(p.cycles, func(i, j int) bool { return p.cycles[i].keys[0] < p.cycles[j].keys[0] })
}

// collectLockRegions finds every classified Lock/RLock in the node's body
// with its held region — Lock to first matching Unlock, or to the body
// end when the Unlock is deferred or missing.
func (p *Program) collectLockRegions(n *funcNode) ([]acquire, []region) {
	info := n.pkg.Info
	type op struct {
		key      lockKey
		recv     string
		name     string
		pos, end token.Pos
		deferred bool
	}
	var ops []op
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
		key := p.lockKeyFor(n, sel.X)
		ops = append(ops, op{key: key, recv: renderExpr(p.fset, sel.X), name: name, pos: call.Pos(), end: call.End(), deferred: deferred})
	}
	walkShallow(n.body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.DeferStmt:
			add(x.Call, true)
			return false
		case *ast.CallExpr:
			add(x, false)
		}
		return true
	})
	var acqs []acquire
	var regs []region
	for _, o := range ops {
		if o.name != "Lock" && o.name != "RLock" {
			continue
		}
		acqs = append(acqs, acquire{key: o.key, pos: o.pos})
		want := unlockName(o.name)
		end := n.body.End()
		for _, u := range ops {
			if u.name == want && u.key == o.key && u.recv == o.recv && !u.deferred &&
				u.pos > o.pos && u.pos < end {
				end = u.pos
			}
		}
		regs = append(regs, region{key: o.key, recv: o.recv, start: o.end, end: end, read: o.name == "RLock"})
	}
	return acqs, regs
}

// lockKeyFor classifies a mutex expression: field mutexes by their owning
// named type, package-level variables by package, locals by function.
func (p *Program) lockKeyFor(n *funcNode, x ast.Expr) lockKey {
	info := n.pkg.Info
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		if selection := info.Selections[x]; selection != nil {
			recv := selection.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
				return lockKey(named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name)
			}
		}
		if obj, ok := info.Uses[x.Sel].(*types.Var); ok && obj.Pkg() != nil {
			return lockKey(obj.Pkg().Path() + "." + obj.Name())
		}
	case *ast.Ident:
		if obj, ok := info.Uses[x].(*types.Var); ok {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return lockKey(obj.Pkg().Path() + "." + obj.Name())
			}
			return lockKey(n.pkg.Path + "." + string(n.id) + "." + obj.Name())
		}
	}
	return lockKey(n.pkg.Path + "." + renderExpr(p.fset, x))
}

// shortKey compacts a lock class for messages.
func (p *Program) shortKey(k lockKey) string {
	return p.shorten(string(k))
}

// nodesOf returns the package's node IDs in sorted order.
func (p *Program) nodesOf(pkg *Package) []FuncID {
	var out []FuncID
	for _, id := range p.ids {
		if p.nodes[id].pkg == pkg {
			out = append(out, id)
		}
	}
	return out
}

// calleeByExpr resolves a call expression to its module callees from a
// given package's type info — the hook interprocedural analyzers use at
// report time. Function literals resolve through the literal-node table.
func (p *Program) calleesOf(pkg *Package, node *funcNode, call *ast.CallExpr) []FuncID {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		if id, ok := p.lits[lit]; ok {
			return []FuncID{id}
		}
		return nil
	}
	s := &nodeScan{prog: p, node: node, info: pkg.Info}
	return s.resolve(call.Fun)
}

// nodeEnclosing returns the node whose body lexically contains pos —
// used by analyzers that walk their own AST but need graph context.
func (p *Program) nodeEnclosing(pkg *Package, pos token.Pos) *funcNode {
	var best *funcNode
	for _, id := range p.nodesOf(pkg) {
		n := p.nodes[id]
		if n.body != nil && n.body.Pos() <= pos && pos <= n.body.End() {
			if best == nil || (best.body.Pos() <= n.body.Pos() && n.body.End() <= best.body.End()) {
				best = n
			}
		}
	}
	return best
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
