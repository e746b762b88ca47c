package parser

import (
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/token"
)

// parsePattern parses a comma-separated tuple of pattern parts
// (the <dir. upd. pat.> tuples of Figures 5 and 10, and MATCH patterns).
func (p *parser) parsePattern() []*ast.PatternPart {
	var parts []*ast.PatternPart
	parts = append(parts, p.parsePatternPart())
	for p.accept(token.Comma) {
		parts = append(parts, p.parsePatternPart())
	}
	return parts
}

// parsePatternPart parses [name =] node (rel node)*.
func (p *parser) parsePatternPart() *ast.PatternPart {
	part := &ast.PatternPart{}
	if isVar(p.cur()) && p.peek().Type == token.Eq {
		part.Var = p.variable()
		p.next() // =
	}
	part.Nodes = append(part.Nodes, p.parseNodePattern())
	for p.at(token.Minus) || p.at(token.Lt) {
		rel := p.parseRelPattern()
		part.Rels = append(part.Rels, rel)
		part.Nodes = append(part.Nodes, p.parseNodePattern())
	}
	return part
}

// parseNodePattern parses ( var? labels? props? ).
func (p *parser) parseNodePattern() *ast.NodePattern {
	p.expect(token.LParen)
	n := &ast.NodePattern{}
	if isVar(p.cur()) {
		n.Var = p.variable()
	}
	if p.at(token.Colon) {
		n.Labels = p.parseLabelList()
	}
	if p.at(token.LBrace) {
		n.Props = p.parseMapLiteral()
	} else if p.at(token.Param) {
		n.Props = &ast.Parameter{Name: p.next().Lit}
	}
	p.expect(token.RParen)
	return n
}

// parseRelPattern parses the relationship connector between two node
// patterns:
//
//	-->   --   <--             (bracketless shorthands)
//	-[ body ]->  <-[ body ]-  -[ body ]-  <-[ body ]->
//
// where body is: var? (:TYPE (| :?TYPE)*)? varlength? props?.
func (p *parser) parseRelPattern() *ast.RelPattern {
	r := &ast.RelPattern{Direction: ast.DirBoth, MinHops: -1, MaxHops: -1}
	leftArrow := false
	if p.accept(token.Lt) {
		leftArrow = true
	}
	p.expect(token.Minus)
	if p.accept(token.LBracket) {
		p.parseRelBody(r)
		p.expect(token.RBracket)
	}
	p.expect(token.Minus)
	rightArrow := p.accept(token.Gt)
	switch {
	case leftArrow && rightArrow:
		r.Direction = ast.DirBoth
	case leftArrow:
		r.Direction = ast.DirIn
	case rightArrow:
		r.Direction = ast.DirOut
	default:
		r.Direction = ast.DirBoth
	}
	return r
}

func (p *parser) parseRelBody(r *ast.RelPattern) {
	if isVar(p.cur()) {
		r.Var = p.variable()
	}
	if p.accept(token.Colon) {
		r.Types = append(r.Types, p.name())
		for p.accept(token.Pipe) {
			p.accept(token.Colon) // both :A|:B and :A|B are accepted
			r.Types = append(r.Types, p.name())
		}
	}
	if p.accept(token.Star) {
		r.VarLength = true
		if p.at(token.Int) {
			n := p.parseIntLit()
			r.MinHops = n
			r.MaxHops = n
		}
		if p.accept(token.DotDot) {
			r.MaxHops = -1
			if p.at(token.Int) {
				r.MaxHops = p.parseIntLit()
			}
		}
	}
	if p.at(token.LBrace) {
		r.Props = p.parseMapLiteral()
	} else if p.at(token.Param) {
		r.Props = &ast.Parameter{Name: p.next().Lit}
	}
}

func (p *parser) parseIntLit() int {
	t := p.expect(token.Int)
	n, err := strconv.ParseInt(t.Lit, 0, 64)
	if err != nil {
		p.errorf("invalid integer %q", t.Lit)
	}
	return int(n)
}

// parseMapLiteral parses { key: expr, ... }.
func (p *parser) parseMapLiteral() *ast.MapLit {
	p.expect(token.LBrace)
	m := &ast.MapLit{}
	if !p.at(token.RBrace) {
		for {
			key := p.mapKey()
			p.expect(token.Colon)
			m.Keys = append(m.Keys, key)
			m.Vals = append(m.Vals, p.parseExpr())
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	p.expect(token.RBrace)
	return m
}

func (p *parser) mapKey() string {
	// A map value can be stored as a property: copy its keys out of the
	// statement text, as LiteralValue copies strings.
	if p.at(token.String) {
		return strings.Clone(p.next().Lit)
	}
	return strings.Clone(p.name())
}
