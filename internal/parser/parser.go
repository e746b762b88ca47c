// Package parser implements a recursive-descent parser for Cypher
// statements, covering the union of the Cypher 9 update grammar
// (Figures 2-5 of the paper) and the revised grammar (Figure 10):
// reading clauses, WITH/RETURN projections, UNWIND, LOAD CSV, CREATE,
// SET, REMOVE, (DETACH) DELETE, FOREACH, and the three MERGE forms
// (legacy MERGE, MERGE ALL, MERGE SAME).
//
// The parser deliberately accepts the superset grammar; the per-dialect
// restrictions that Section 4.4 of the paper contrasts (the WITH
// requirement between updating and reading clauses, the single
// possibly-undirected pattern of legacy MERGE, the directed pattern
// tuples of MERGE ALL/SAME) are enforced by the dialect validators in
// package core, so both grammars can be compared over one AST.
package parser

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/token"
)

// Error is a parse error with position information.
type Error struct {
	Pos token.Position
	Msg string
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("parse error at %d:%d: %s", e.Pos.Line, e.Pos.Column, e.Msg)
}

type parser struct {
	toks []token.Token
	pos  int
	lits []LiteralToken // the Int, Float and String literals built so far
}

// LiteralToken is a literal the parser built from an Int, Float or
// String token, with the token's index in the parsed token slice.
type LiteralToken struct {
	Lit *ast.Literal
	Tok int
}

// Parse parses a complete Cypher statement.
func Parse(src string) (*ast.Statement, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	stmt, _, err := ParseTokens(toks)
	return stmt, err
}

// ParseTokens parses a complete statement from toks, the output of
// lexer.Tokenize, and also returns every literal it built from an Int,
// Float or String token, in token order.
func ParseTokens(toks []token.Token) (stmt *ast.Statement, lits []LiteralToken, err error) {
	p := &parser{toks: toks}
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*Error); ok {
				stmt, lits, err = nil, nil, pe
				return
			}
			panic(r)
		}
	}()
	stmt = p.parseStatement()
	return stmt, p.lits, nil
}

// ParseExpr parses a single expression (used by tests and the REPL).
func ParseExpr(src string) (expr ast.Expr, err error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*Error); ok {
				expr, err = nil, pe
				return
			}
			panic(r)
		}
	}()
	expr = p.parseExpr()
	p.expect(token.EOF)
	return expr, nil
}

func (p *parser) cur() token.Token  { return p.toks[p.pos] }
func (p *parser) peek() token.Token { return p.peekAt(1) }

// peekAt looks n tokens ahead, saturating at EOF.
func (p *parser) peekAt(n int) token.Token {
	if p.pos+n < len(p.toks) {
		return p.toks[p.pos+n]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) at(t token.Type) bool { return p.cur().Type == t }

func (p *parser) accept(t token.Type) bool {
	if p.at(t) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) next() token.Token {
	t := p.cur()
	if t.Type != token.EOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(t token.Type) token.Token {
	if !p.at(t) {
		p.errorf("expected %s, found %s", t, describe(p.cur()))
	}
	return p.next()
}

func describe(t token.Token) string {
	switch t.Type {
	case token.EOF:
		return "end of input"
	case token.Ident, token.Int, token.Float, token.String:
		return fmt.Sprintf("%s %q", t.Type, t.Lit)
	default:
		return fmt.Sprintf("%q", t.Type.String())
	}
}

func (p *parser) errorf(format string, args ...any) {
	panic(&Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)})
}

// isName reports whether the token can serve as a symbolic name.
// Keywords are allowed as names in positions where no ambiguity arises
// (labels, property keys, relationship types), following Cypher practice.
func isName(t token.Token) bool {
	return t.Type == token.Ident || t.Type.IsKeyword()
}

// name consumes a symbolic name token.
func (p *parser) name() string {
	if !isName(p.cur()) {
		p.errorf("expected name, found %s", describe(p.cur()))
	}
	return p.next().Lit
}

// softKeywords are reserved words that may nevertheless be used as
// variable names, because no clause or operator can begin with them in a
// variable position. The paper's own Section 4.2 example binds a
// relationship to the variable "order".
var softKeywords = map[token.Type]bool{
	token.ORDER: true, token.BY: true, token.ASC: true, token.DESC: true,
	token.SKIP: true, token.LIMIT: true, token.ON: true, token.SAME: true,
	token.CSV: true, token.FROM: true, token.HEADERS: true,
	token.FIELDTERMINATOR: true, token.STARTS: true, token.ENDS: true,
	token.CONTAINS: true,
	// Transaction keywords stay usable as variables: they are only
	// recognized as statements when they appear alone at statement start,
	// so `RETURN commit` keeps meaning a variable named commit.
	token.BEGIN: true, token.COMMIT: true, token.ROLLBACK: true,
	// Schema keywords likewise: CREATE INDEX ON / DROP INDEX ON are only
	// recognized at statement start, so `RETURN index` and a node
	// variable named drop keep working.
	token.INDEX: true, token.DROP: true,
}

// isVar reports whether the token can serve as a variable name.
func isVar(t token.Token) bool {
	return t.Type == token.Ident || softKeywords[t.Type]
}

// txnControl maps the transaction-control keywords to their statement
// kinds.
var txnControl = map[token.Type]ast.TxnControl{
	token.BEGIN:    ast.TxnBegin,
	token.COMMIT:   ast.TxnCommit,
	token.ROLLBACK: ast.TxnRollback,
}

// variable consumes a variable name.
func (p *parser) variable() string {
	if !isVar(p.cur()) {
		p.errorf("expected variable, found %s", describe(p.cur()))
	}
	return p.next().Lit
}

func (p *parser) parseStatement() *ast.Statement {
	// BEGIN / COMMIT / ROLLBACK are whole statements of their own
	// (transaction control); they take no clauses.
	if ctl, ok := txnControl[p.cur().Type]; ok && (p.peek().Type == token.EOF || p.peek().Type == token.Semi) {
		p.next()
		p.accept(token.Semi)
		p.expect(token.EOF)
		return &ast.Statement{TxnControl: ctl}
	}
	// CREATE INDEX ON :Label(prop) / DROP INDEX ON :Label(prop) are whole
	// schema statements. The ON lookahead keeps `CREATE index = (a)-...`
	// (a path variable named index) parsing as a CREATE clause.
	if p.at(token.CREATE) && p.peek().Type == token.INDEX && p.peekAt(2).Type == token.ON {
		return p.parseIndexStmt(false)
	}
	if p.at(token.DROP) {
		return p.parseIndexStmt(true)
	}
	stmt := &ast.Statement{}
	stmt.Queries = append(stmt.Queries, p.parseSingleQuery())
	for p.accept(token.UNION) {
		all := p.accept(token.ALL)
		stmt.UnionAll = append(stmt.UnionAll, all)
		stmt.Queries = append(stmt.Queries, p.parseSingleQuery())
	}
	p.accept(token.Semi)
	p.expect(token.EOF)
	return stmt
}

// parseIndexStmt parses CREATE INDEX ON :Label(prop) or
// DROP INDEX ON :Label(prop); the leading CREATE/DROP is current.
func (p *parser) parseIndexStmt(drop bool) *ast.Statement {
	p.next() // CREATE or DROP
	p.expect(token.INDEX)
	p.expect(token.ON)
	p.expect(token.Colon)
	is := &ast.IndexStmt{Drop: drop, Label: p.name()}
	p.expect(token.LParen)
	is.Prop = p.name()
	p.expect(token.RParen)
	p.accept(token.Semi)
	p.expect(token.EOF)
	return &ast.Statement{Index: is}
}

func (p *parser) parseSingleQuery() *ast.SingleQuery {
	q := &ast.SingleQuery{}
	for {
		c := p.parseClause()
		if c == nil {
			break
		}
		q.Clauses = append(q.Clauses, c)
		if _, isReturn := c.(*ast.ReturnClause); isReturn {
			break
		}
	}
	if len(q.Clauses) == 0 {
		p.errorf("expected a clause, found %s", describe(p.cur()))
	}
	return q
}

// parseClause parses one clause, or returns nil at a query boundary
// (EOF, UNION, or semicolon).
func (p *parser) parseClause() ast.Clause {
	switch p.cur().Type {
	case token.EOF, token.UNION, token.Semi:
		return nil
	case token.MATCH:
		p.next()
		return p.parseMatch(false)
	case token.OPTIONAL:
		p.next()
		p.expect(token.MATCH)
		return p.parseMatch(true)
	case token.UNWIND:
		p.next()
		e := p.parseExpr()
		p.expect(token.AS)
		return &ast.UnwindClause{Expr: e, Var: p.variable()}
	case token.LOAD:
		return p.parseLoadCSV()
	case token.WITH:
		p.next()
		w := &ast.WithClause{Projection: p.parseProjection()}
		if p.accept(token.WHERE) {
			w.Where = p.parseExpr()
		}
		return w
	case token.RETURN:
		p.next()
		return &ast.ReturnClause{Projection: p.parseProjection()}
	case token.CREATE:
		p.next()
		return &ast.CreateClause{Pattern: p.parsePattern()}
	case token.MERGE:
		p.next()
		return p.parseMerge()
	case token.SET:
		p.next()
		return &ast.SetClause{Items: p.parseSetItems()}
	case token.REMOVE:
		p.next()
		return p.parseRemove()
	case token.DELETE:
		p.next()
		return p.parseDelete(false)
	case token.DETACH:
		p.next()
		p.expect(token.DELETE)
		return p.parseDelete(true)
	case token.FOREACH:
		p.next()
		return p.parseForeach()
	default:
		p.errorf("expected a clause, found %s", describe(p.cur()))
		return nil
	}
}

func (p *parser) parseMatch(optional bool) ast.Clause {
	m := &ast.MatchClause{Optional: optional, Pattern: p.parsePattern()}
	if p.accept(token.WHERE) {
		m.Where = p.parseExpr()
	}
	return m
}

func (p *parser) parseLoadCSV() ast.Clause {
	p.expect(token.LOAD)
	p.expect(token.CSV)
	c := &ast.LoadCSVClause{}
	if p.accept(token.WITH) {
		p.expect(token.HEADERS)
		c.WithHeaders = true
	}
	p.expect(token.FROM)
	c.URL = p.parseExpr()
	p.expect(token.AS)
	c.Var = p.variable()
	if p.accept(token.FIELDTERMINATOR) {
		c.FieldTerm = p.expect(token.String).Lit
	}
	return c
}

func (p *parser) parseMerge() ast.Clause {
	m := &ast.MergeClause{Form: ast.MergeLegacy}
	if p.accept(token.ALL) {
		m.Form = ast.MergeAll
	} else if p.accept(token.SAME) {
		m.Form = ast.MergeSame
	}
	m.Pattern = p.parsePattern()
	for p.at(token.ON) {
		p.next()
		switch {
		case p.accept(token.CREATE):
			p.expect(token.SET)
			m.OnCreate = append(m.OnCreate, p.parseSetItems()...)
		case p.accept(token.MATCH):
			p.expect(token.SET)
			m.OnMatch = append(m.OnMatch, p.parseSetItems()...)
		default:
			p.errorf("expected CREATE or MATCH after ON")
		}
	}
	return m
}

func (p *parser) parseDelete(detach bool) ast.Clause {
	d := &ast.DeleteClause{Detach: detach}
	d.Exprs = append(d.Exprs, p.parseExpr())
	for p.accept(token.Comma) {
		d.Exprs = append(d.Exprs, p.parseExpr())
	}
	return d
}

func (p *parser) parseForeach() ast.Clause {
	p.expect(token.LParen)
	f := &ast.ForeachClause{Var: p.variable()}
	p.expect(token.IN)
	f.List = p.parseExpr()
	p.expect(token.Pipe)
	for !p.at(token.RParen) {
		c := p.parseClause()
		if c == nil {
			p.errorf("unterminated FOREACH body")
		}
		if !c.Updating() {
			p.errorf("FOREACH body allows update clauses only, found %T", c)
		}
		f.Body = append(f.Body, c)
	}
	p.expect(token.RParen)
	if len(f.Body) == 0 {
		p.errorf("FOREACH requires at least one update clause")
	}
	return f
}

func (p *parser) parseProjection() ast.Projection {
	proj := ast.Projection{}
	if p.accept(token.DISTINCT) {
		proj.Distinct = true
	}
	if p.accept(token.Star) {
		proj.Star = true
		for p.accept(token.Comma) {
			proj.Items = append(proj.Items, p.parseReturnItem())
		}
	} else {
		proj.Items = append(proj.Items, p.parseReturnItem())
		for p.accept(token.Comma) {
			proj.Items = append(proj.Items, p.parseReturnItem())
		}
	}
	if p.accept(token.ORDER) {
		p.expect(token.BY)
		for {
			item := &ast.SortItem{Expr: p.parseExpr()}
			if p.accept(token.DESC) {
				item.Desc = true
			} else {
				p.accept(token.ASC)
			}
			proj.OrderBy = append(proj.OrderBy, item)
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	if p.accept(token.SKIP) {
		proj.Skip = p.parseExpr()
	}
	if p.accept(token.LIMIT) {
		proj.Limit = p.parseExpr()
	}
	return proj
}

func (p *parser) parseReturnItem() *ast.ReturnItem {
	item := &ast.ReturnItem{Expr: p.parseExpr()}
	if p.accept(token.AS) {
		item.Alias = p.name()
	}
	return item
}

func (p *parser) parseSetItems() []ast.SetItem {
	var items []ast.SetItem
	for {
		items = append(items, p.parseSetItem())
		if !p.accept(token.Comma) {
			return items
		}
	}
}

func (p *parser) parseSetItem() ast.SetItem {
	// SET var:Label..., SET var = expr, SET var += expr,
	// SET <postfix-expr>.key = expr.
	if isVar(p.cur()) {
		switch p.peek().Type {
		case token.Colon:
			v := p.variable()
			return &ast.SetLabels{Var: v, Labels: p.parseLabelList()}
		case token.Eq:
			v := p.variable()
			p.next()
			return &ast.SetAllProps{Var: v, Value: p.parseExpr()}
		case token.PlusEq:
			v := p.variable()
			p.next()
			return &ast.SetAllProps{Var: v, Value: p.parseExpr(), Add: true}
		}
	}
	target := p.parsePostfix(p.parseAtom())
	pa, ok := target.(*ast.PropAccess)
	if !ok {
		p.errorf("invalid SET target %s", target)
	}
	p.expect(token.Eq)
	return &ast.SetProp{Target: pa.Expr, Key: pa.Key, Value: p.parseExpr()}
}

func (p *parser) parseLabelList() []string {
	var labels []string
	p.expect(token.Colon)
	labels = append(labels, p.name())
	for p.at(token.Colon) {
		p.next()
		labels = append(labels, p.name())
	}
	return labels
}

func (p *parser) parseRemove() ast.Clause {
	r := &ast.RemoveClause{}
	for {
		if isVar(p.cur()) && p.peek().Type == token.Colon {
			v := p.variable()
			r.Items = append(r.Items, &ast.RemoveLabels{Var: v, Labels: p.parseLabelList()})
		} else {
			target := p.parsePostfix(p.parseAtom())
			pa, ok := target.(*ast.PropAccess)
			if !ok {
				p.errorf("invalid REMOVE target %s", target)
			}
			r.Items = append(r.Items, &ast.RemoveProp{Target: pa.Expr, Key: pa.Key})
		}
		if !p.accept(token.Comma) {
			return r
		}
	}
}
