// Package lint is swiftvet's analysis framework: a small go/analysis-style
// harness built on go/parser + go/ast + go/types only (no x/tools), a
// whole-program call graph with one may-block summary (callgraph.go), and
// the five project-specific analyzers that machine-enforce this repo's
// invariants — simulator/controller determinism, lock discipline (nothing
// that may block, a second mutex included, runs under a held mutex,
// directly or through calls), error discipline, enum-switch
// exhaustiveness, and batch/row kernel parity.
//
// Every reproduction experiment (Figs 3–16, the chaos soak, the invariant
// auditor) is only trustworthy because the deterministic packages replay
// bit-for-bit from a seed; these analyzers keep that property from rotting
// one innocuous PR at a time.
//
// There is no way to silence a finding: it is fixed or the code is
// restructured. Allocation budgets are not a static check; they are
// measured by the testing.AllocsPerRun guards (DESIGN.md "Allocation
// budgets").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer hit. A finding about a call made under a held
// mutex carries a Why chain: the call path from the reported site down to
// the terminal may-block fact, printed by swiftvet -why and included in
// -json output.
type Finding struct {
	Analyzer string   `json:"analyzer"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Message  string   `json:"message"`
	Why      []string `json:"why,omitempty"`
}

// String renders a finding the way go vet does.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one named check over a single package.
type Analyzer struct {
	Name string
	Run  func(*Pass)
}

// Pass carries one analyzer's view of one package. Prog is the
// whole-program call-graph/summary view shared by every package's pass;
// only lockdiscipline reads it.
type Pass struct {
	Analyzer *Analyzer
	Cfg      *Config
	Fset     *token.FileSet
	Pkg      *Package
	Prog     *Program

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.reportWhy(pos, nil, format, args...)
}

// reportWhy records a finding carrying a call-chain witness.
func (p *Pass) reportWhy(pos token.Pos, why []string, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
		Why:      why,
	})
}

// Config scopes analyzers per package. The zero value checks everything;
// DefaultConfig encodes this repository's policy.
type Config struct {
	// Module is the main module path analyzers scope themselves by.
	Module string
}

// DefaultConfig is the repository policy: every analyzer runs on every
// package, and every internal package — the real-network rpc layer
// included — is held to the determinism contract.
func DefaultConfig() *Config {
	return ConfigForModule("swift")
}

// ConfigForModule applies the repository policy to an arbitrary main module
// path, so swiftvet works unchanged on any module laid out like this one
// (the lint golden tests run it over a fixture module).
func ConfigForModule(module string) *Config {
	return &Config{Module: module}
}

// inModule reports whether path is inside the configured main module.
func (c *Config) inModule(path string) bool {
	if c == nil || c.Module == "" {
		return true
	}
	return path == c.Module || strings.HasPrefix(path, c.Module+"/")
}

// internalPath reports whether path is a module-internal package (the
// scope of the determinism and errdiscipline contracts; cmd/ and
// examples/ are user-facing mains that may print, sleep, and exit).
func (c *Config) internalPath(path string) bool {
	return c.inModule(path) && strings.Contains(path, "/internal/")
}

// All returns the five analyzers in catalogue order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		LockDiscipline,
		ErrDiscipline,
		Exhaustive,
		BatchParity,
	}
}

// RunPackages executes every analyzer over the packages and returns their
// findings, duplicates dropped, in byte-stable (file, line, col, analyzer,
// message) order. The whole-program view is built over every loaded
// package: the summary needs the full graph.
func RunPackages(fset *token.FileSet, pkgs []*Package, cfg *Config) []Finding {
	prog := buildProgram(fset, pkgs, cfg)
	var findings []Finding
	for _, pkg := range pkgs {
		var raw []Finding
		for _, a := range All() {
			pass := &Pass{Analyzer: a, Cfg: cfg, Fset: fset, Pkg: pkg, Prog: prog, findings: &raw}
			a.Run(pass)
		}
		seen := make(map[string]bool)
		for _, f := range raw {
			key := f.String()
			if !seen[key] {
				seen[key] = true
				findings = append(findings, f)
			}
		}
	}
	sortFindings(findings)
	return findings
}

// sortFindings orders findings by (file, line, col, analyzer, message) —
// the full key, so output is byte-stable even when two findings from the
// same analyzer land on the same position.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// funcBodies yields every function body in the file — declarations and
// literals — each exactly once, with literals reported as their own
// scope (a Lock in a closure must find its Unlock in that closure).
func funcBodies(f *ast.File, visit func(body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visit(n.Body)
			}
		case *ast.FuncLit:
			visit(n.Body)
		}
		return true
	})
}

// walkShallow walks the statements of body without descending into nested
// function literals, whose execution time is unknown to the enclosing
// scope's analysis.
func walkShallow(body ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return visit(n)
	})
}

// calleeFunc resolves a callee expression — a plain or qualified function
// name, or a method selector — to the function or method it names; nil
// for func values, fields, builtins and conversions.
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if sel, isSel := ast.Unparen(fun).(*ast.SelectorExpr); isSel {
		id, ok = sel.Sel, true
	}
	if !ok {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
