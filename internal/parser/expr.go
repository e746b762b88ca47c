package parser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/token"
	"repro/internal/value"
)

// Expression grammar, loosest to tightest:
//
//	or:          xor (OR xor)*
//	xor:         and (XOR and)*
//	and:         not (AND not)*
//	not:         NOT* comparison
//	comparison:  predicated ((= | <> | < | <= | > | >=) predicated)*
//	             (chains a < b < c fold into conjunction)
//	predicated:  addsub (STARTS WITH | ENDS WITH | CONTAINS | IN addsub
//	             | IS [NOT] NULL)*
//	addsub:      muldiv ((+ | -) muldiv)*
//	muldiv:      power ((* | / | %) power)*
//	power:       unary (^ unary)*
//	unary:       (+ | -)* postfix
//	postfix:     atom (. key | [expr] | [from..to])*
func (p *parser) parseExpr() ast.Expr { return p.parseOr() }

func (p *parser) parseOr() ast.Expr {
	e := p.parseXor()
	for p.accept(token.OR) {
		e = &ast.BinaryOp{Op: ast.OpOr, Left: e, Right: p.parseXor()}
	}
	return e
}

func (p *parser) parseXor() ast.Expr {
	e := p.parseAnd()
	for p.accept(token.XOR) {
		e = &ast.BinaryOp{Op: ast.OpXor, Left: e, Right: p.parseAnd()}
	}
	return e
}

func (p *parser) parseAnd() ast.Expr {
	e := p.parseNot()
	for p.accept(token.AND) {
		e = &ast.BinaryOp{Op: ast.OpAnd, Left: e, Right: p.parseNot()}
	}
	return e
}

func (p *parser) parseNot() ast.Expr {
	if p.accept(token.NOT) {
		return &ast.UnaryOp{Op: ast.OpNot, Expr: p.parseNot()}
	}
	return p.parseComparison()
}

var comparisonOps = map[token.Type]ast.BinaryOpKind{
	token.Eq:  ast.OpEq,
	token.Neq: ast.OpNeq,
	token.Lt:  ast.OpLt,
	token.Leq: ast.OpLeq,
	token.Gt:  ast.OpGt,
	token.Geq: ast.OpGeq,
}

func (p *parser) parseComparison() ast.Expr {
	first := p.parsePredicated()
	op, isCmp := comparisonOps[p.cur().Type]
	if !isCmp {
		return first
	}
	// Chained comparisons (a < b <= c) fold into a conjunction, matching
	// Cypher's mathematical reading.
	var result ast.Expr
	left := first
	for {
		op2, ok := comparisonOps[p.cur().Type]
		if !ok {
			break
		}
		p.next()
		right := p.parsePredicated()
		cmp := &ast.BinaryOp{Op: op2, Left: left, Right: right}
		if result == nil {
			result = cmp
		} else {
			result = &ast.BinaryOp{Op: ast.OpAnd, Left: result, Right: cmp}
		}
		left = right
	}
	_ = op
	return result
}

func (p *parser) parsePredicated() ast.Expr {
	e := p.parseAddSub()
	for {
		switch {
		case p.at(token.STARTS):
			p.next()
			p.expect(token.WITH)
			e = &ast.BinaryOp{Op: ast.OpStartsWith, Left: e, Right: p.parseAddSub()}
		case p.at(token.ENDS):
			p.next()
			p.expect(token.WITH)
			e = &ast.BinaryOp{Op: ast.OpEndsWith, Left: e, Right: p.parseAddSub()}
		case p.at(token.CONTAINS):
			p.next()
			e = &ast.BinaryOp{Op: ast.OpContains, Left: e, Right: p.parseAddSub()}
		case p.at(token.IN):
			p.next()
			e = &ast.BinaryOp{Op: ast.OpIn, Left: e, Right: p.parseAddSub()}
		case p.at(token.IS):
			p.next()
			not := p.accept(token.NOT)
			p.expect(token.NULL)
			e = &ast.IsNull{Expr: e, Not: not}
		default:
			return e
		}
	}
}

func (p *parser) parseAddSub() ast.Expr {
	e := p.parseMulDiv()
	for {
		switch {
		case p.accept(token.Plus):
			e = &ast.BinaryOp{Op: ast.OpAdd, Left: e, Right: p.parseMulDiv()}
		case p.accept(token.Minus):
			e = &ast.BinaryOp{Op: ast.OpSub, Left: e, Right: p.parseMulDiv()}
		default:
			return e
		}
	}
}

func (p *parser) parseMulDiv() ast.Expr {
	e := p.parsePower()
	for {
		switch {
		case p.accept(token.Star):
			e = &ast.BinaryOp{Op: ast.OpMul, Left: e, Right: p.parsePower()}
		case p.accept(token.Slash):
			e = &ast.BinaryOp{Op: ast.OpDiv, Left: e, Right: p.parsePower()}
		case p.accept(token.Percent):
			e = &ast.BinaryOp{Op: ast.OpMod, Left: e, Right: p.parsePower()}
		default:
			return e
		}
	}
}

func (p *parser) parsePower() ast.Expr {
	e := p.parseUnary()
	for p.accept(token.Caret) {
		e = &ast.BinaryOp{Op: ast.OpPow, Left: e, Right: p.parseUnary()}
	}
	return e
}

func (p *parser) parseUnary() ast.Expr {
	switch {
	case p.accept(token.Minus):
		return &ast.UnaryOp{Op: ast.OpNeg, Expr: p.parseUnary()}
	case p.accept(token.Plus):
		return &ast.UnaryOp{Op: ast.OpPos, Expr: p.parseUnary()}
	}
	return p.parsePostfix(p.parseAtom())
}

func (p *parser) parsePostfix(e ast.Expr) ast.Expr {
	for {
		switch {
		case p.at(token.Dot):
			p.next()
			e = &ast.PropAccess{Expr: e, Key: p.name()}
		case p.at(token.LBracket):
			p.next()
			var from ast.Expr
			if !p.at(token.DotDot) {
				from = p.parseExpr()
			}
			if p.accept(token.DotDot) {
				var to ast.Expr
				if !p.at(token.RBracket) {
					to = p.parseExpr()
				}
				p.expect(token.RBracket)
				e = &ast.Slice{Expr: e, From: from, To: to}
			} else {
				p.expect(token.RBracket)
				e = &ast.Index{Expr: e, Index: from}
			}
		default:
			return e
		}
	}
}

func (p *parser) parseAtom() ast.Expr {
	t := p.cur()
	switch t.Type {
	case token.Int, token.Float, token.String:
		p.next()
		v, err := LiteralValue(t)
		if err != nil {
			p.errorf("%s", err)
		}
		lit := &ast.Literal{Val: v}
		p.lits = append(p.lits, LiteralToken{Lit: lit, Tok: p.pos - 1})
		return lit
	case token.TRUE:
		p.next()
		return &ast.Literal{Val: value.Bool(true)}
	case token.FALSE:
		p.next()
		return &ast.Literal{Val: value.Bool(false)}
	case token.NULL:
		p.next()
		return &ast.Literal{Val: value.NullValue}
	case token.Param:
		p.next()
		return &ast.Parameter{Name: t.Lit}
	case token.LParen:
		p.next()
		e := p.parseExpr()
		p.expect(token.RParen)
		return e
	case token.LBracket:
		return p.parseListAtom()
	case token.LBrace:
		return p.parseMapLiteral()
	case token.CASE:
		return p.parseCase()
	case token.ALL:
		// Quantifier all(...); ALL is a reserved word so it cannot be a
		// plain function name.
		if p.peek().Type == token.LParen {
			p.next()
			p.expect(token.LParen)
			return p.parseQuantifier(ast.QuantAll)
		}
		p.errorf("unexpected ALL")
	case token.Ident:
		if p.peek().Type == token.LParen {
			return p.parseCallLike()
		}
		p.next()
		return &ast.Variable{Name: t.Lit}
	default:
		if softKeywords[t.Type] {
			if p.peek().Type == token.LParen {
				return p.parseCallLike()
			}
			p.next()
			return &ast.Variable{Name: t.Lit}
		}
	}
	p.errorf("unexpected %s in expression", describe(t))
	return nil
}

// parseListAtom disambiguates list literals from list comprehensions.
func (p *parser) parseListAtom() ast.Expr {
	p.expect(token.LBracket)
	// Comprehension: [ x IN ... ]
	if p.at(token.Ident) && p.peek().Type == token.IN {
		v := p.variable()
		p.expect(token.IN)
		lc := &ast.ListComprehension{Var: v, List: p.parseExpr()}
		if p.accept(token.WHERE) {
			lc.Where = p.parseExpr()
		}
		if p.accept(token.Pipe) {
			lc.Proj = p.parseExpr()
		}
		p.expect(token.RBracket)
		return lc
	}
	lst := &ast.ListLit{}
	if !p.at(token.RBracket) {
		for {
			lst.Elems = append(lst.Elems, p.parseExpr())
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	p.expect(token.RBracket)
	return lst
}

func (p *parser) parseCase() ast.Expr {
	p.expect(token.CASE)
	c := &ast.CaseExpr{}
	if !p.at(token.WHEN) {
		c.Test = p.parseExpr()
	}
	for p.accept(token.WHEN) {
		c.Whens = append(c.Whens, p.parseExpr())
		p.expect(token.THEN)
		c.Thens = append(c.Thens, p.parseExpr())
	}
	if len(c.Whens) == 0 {
		p.errorf("CASE requires at least one WHEN")
	}
	if p.accept(token.ELSE) {
		c.Else = p.parseExpr()
	}
	p.expect(token.END)
	return c
}

// parseCallLike parses function calls and the function-like binders
// (any/none/single quantifiers, reduce).
func (p *parser) parseCallLike() ast.Expr {
	name := p.next().Lit
	lower := strings.ToLower(name)
	p.expect(token.LParen)
	switch lower {
	case "any":
		return p.parseQuantifier(ast.QuantAny)
	case "none":
		return p.parseQuantifier(ast.QuantNone)
	case "single":
		return p.parseQuantifier(ast.QuantSingle)
	case "reduce":
		return p.parseReduce()
	}
	f := &ast.FuncCall{Name: lower}
	if p.accept(token.DISTINCT) {
		f.Distinct = true
	}
	if p.at(token.Star) && lower == "count" {
		p.next()
		f.Star = true
		p.expect(token.RParen)
		return f
	}
	if !p.at(token.RParen) {
		for {
			f.Args = append(f.Args, p.parseExpr())
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	p.expect(token.RParen)
	return f
}

// parseQuantifier parses the body after "kind(" has been consumed.
func (p *parser) parseQuantifier(kind ast.QuantKind) ast.Expr {
	q := &ast.Quantifier{Kind: kind, Var: p.variable()}
	p.expect(token.IN)
	q.List = p.parseExpr()
	p.expect(token.WHERE)
	q.Where = p.parseExpr()
	p.expect(token.RParen)
	return q
}

// parseReduce parses the body after "reduce(" has been consumed.
func (p *parser) parseReduce() ast.Expr {
	r := &ast.Reduce{Acc: p.variable()}
	p.expect(token.Eq)
	r.Init = p.parseExpr()
	p.expect(token.Comma)
	r.Var = p.variable()
	p.expect(token.IN)
	r.List = p.parseExpr()
	p.expect(token.Pipe)
	r.Expr = p.parseExpr()
	p.expect(token.RParen)
	return r
}

// LiteralValue converts an Int, Float or String token to the value its
// literal denotes; a string is copied out of the token's text. The parser and the statement cache's literal
// bindings both convert through it, so a bound literal takes the value
// a fresh parse of its text would give it.
func LiteralValue(t token.Token) (value.Value, error) {
	switch t.Type {
	case token.Int:
		n, err := strconv.ParseInt(t.Lit, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid integer literal %q", t.Lit)
		}
		return value.Int(n), nil
	case token.Float:
		f, err := strconv.ParseFloat(t.Lit, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid float literal %q", t.Lit)
		}
		return value.Float(f), nil
	case token.String:
		// The token's text is usually a substring of the statement
		// text; a value stored in the graph must not keep that alive.
		return value.String(strings.Clone(t.Lit)), nil
	}
	return nil, fmt.Errorf("%s is not a literal", t.Type)
}
