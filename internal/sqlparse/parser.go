package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// SelectItem is one projected expression with an optional alias.
type SelectItem struct {
	Expr  string
	Alias string
}

// TableRef is a FROM/JOIN source: a named table (with optional alias) or a
// parenthesised sub-select.
type TableRef struct {
	Table string
	Alias string
	Sub   *SelectStmt
}

// JoinClause is one JOIN ... ON element.
type JoinClause struct {
	Table TableRef
	On    string
}

// OrderItem is one ORDER BY column.
type OrderItem struct {
	Expr string
	Desc bool
}

// SelectStmt is the parsed query.
type SelectStmt struct {
	Items   []SelectItem
	From    TableRef
	Joins   []JoinClause
	Where   string
	GroupBy []string
	OrderBy []OrderItem
	Limit   int // -1 when absent
}

type parser struct {
	toks []token
	i    int
}

// Parse parses one Swift-language statement (a trailing semicolon is
// optional).
func Parse(src string) (*SelectStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	if p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sqlparse: trailing input at %q", p.peek().text)
	}
	return stmt, nil
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) at(s string) bool {
	return p.peek().text == s
}

func (p *parser) expect(s string) error {
	if !p.at(s) {
		return fmt.Errorf("sqlparse: expected %q, got %q at offset %d", s, p.peek().text, p.peek().pos)
	}
	p.next()
	return nil
}

func (p *parser) selectStmt() (*SelectStmt, error) {
	if err := p.expect("select"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	items, err := p.selectList()
	if err != nil {
		return nil, err
	}
	stmt.Items = items
	if err := p.expect("from"); err != nil {
		return nil, err
	}
	from, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = from
	for p.at("join") || p.at("inner") || p.at("left") {
		for p.at("inner") || p.at("left") || p.at("outer") {
			p.next()
		}
		if err := p.expect("join"); err != nil {
			return nil, err
		}
		ref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expect("on"); err != nil {
			return nil, err
		}
		cond := p.rawUntil("join", "inner", "left", "where", "group", "order", "limit", ")", ";")
		stmt.Joins = append(stmt.Joins, JoinClause{Table: ref, On: cond})
	}
	if p.at("where") {
		p.next()
		stmt.Where = p.rawUntil("group", "order", "limit", ")", ";")
	}
	if p.at("group") {
		p.next()
		if err := p.expect("by"); err != nil {
			return nil, err
		}
		for {
			stmt.GroupBy = append(stmt.GroupBy, p.rawUntil(",", "order", "limit", ")", ";"))
			if !p.at(",") {
				break
			}
			p.next()
		}
	}
	if p.at("order") {
		p.next()
		if err := p.expect("by"); err != nil {
			return nil, err
		}
		for {
			expr := p.rawUntil(",", "desc", "asc", "limit", ")", ";")
			item := OrderItem{Expr: expr}
			if p.at("desc") {
				item.Desc = true
				p.next()
			} else if p.at("asc") {
				p.next()
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.at(",") {
				break
			}
			p.next()
		}
	}
	if p.at("limit") {
		p.next()
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sqlparse: LIMIT needs a number, got %q", t.text)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sqlparse: bad LIMIT %q", t.text)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) selectList() ([]SelectItem, error) {
	var items []SelectItem
	for {
		expr := p.rawUntil(",", "from")
		if expr == "" {
			return nil, fmt.Errorf("sqlparse: empty select item at offset %d", p.peek().pos)
		}
		item := SelectItem{Expr: expr}
		// Peel a trailing "as alias" or bare alias out of the raw span.
		if fields := strings.Fields(expr); len(fields) >= 3 && fields[len(fields)-2] == "as" {
			item.Alias = fields[len(fields)-1]
			item.Expr = strings.Join(fields[:len(fields)-2], " ")
		}
		items = append(items, item)
		if !p.at(",") {
			break
		}
		p.next()
	}
	return items, nil
}

func (p *parser) tableRef() (TableRef, error) {
	if p.at("(") {
		p.next()
		sub, err := p.selectStmt()
		if err != nil {
			return TableRef{}, err
		}
		if err := p.expect(")"); err != nil {
			return TableRef{}, err
		}
		ref := TableRef{Sub: sub}
		if p.peek().kind == tokIdent {
			ref.Alias = p.next().text
		}
		return ref, nil
	}
	t := p.next()
	if t.kind != tokIdent {
		return TableRef{}, fmt.Errorf("sqlparse: expected table name, got %q at offset %d", t.text, t.pos)
	}
	ref := TableRef{Table: t.text}
	if p.at("as") {
		p.next()
	}
	if p.peek().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// rawUntil captures raw token text until one of the stop words appears at
// paren depth zero. Stop punctuation ("," ")" ";") is honoured likewise.
func (p *parser) rawUntil(stops ...string) string {
	stop := make(map[string]bool, len(stops))
	for _, s := range stops {
		stop[s] = true
	}
	depth := 0
	var parts []string
	for {
		t := p.peek()
		if t.kind == tokEOF {
			break
		}
		if depth == 0 && stop[t.text] {
			break
		}
		if t.text == "(" {
			depth++
		}
		if t.text == ")" {
			if depth == 0 {
				break
			}
			depth--
		}
		parts = append(parts, t.text)
		p.next()
	}
	return strings.Join(parts, " ")
}
