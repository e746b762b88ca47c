package ast

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/value"
)

// String renders the statement as approximately round-trippable Cypher.
func (s *Statement) String() string {
	if s.TxnControl != TxnNone {
		return s.TxnControl.String()
	}
	if s.Index != nil {
		return s.Index.String()
	}
	var parts []string
	for i, q := range s.Queries {
		if i > 0 {
			if s.UnionAll[i-1] {
				parts = append(parts, "UNION ALL")
			} else {
				parts = append(parts, "UNION")
			}
		}
		parts = append(parts, q.String())
	}
	return strings.Join(parts, " ")
}

// String renders the query's clauses space-separated.
func (q *SingleQuery) String() string {
	parts := make([]string, len(q.Clauses))
	for i, c := range q.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ")
}

func (c *MatchClause) String() string {
	s := "MATCH " + patternString(c.Pattern)
	if c.Optional {
		s = "OPTIONAL " + s
	}
	if c.Where != nil {
		s += " WHERE " + c.Where.String()
	}
	return s
}

func (c *UnwindClause) String() string {
	return "UNWIND " + c.Expr.String() + " AS " + c.Var
}

func (c *LoadCSVClause) String() string {
	s := "LOAD CSV "
	if c.WithHeaders {
		s += "WITH HEADERS "
	}
	s += "FROM " + c.URL.String() + " AS " + c.Var
	if c.FieldTerm != "" {
		s += " FIELDTERMINATOR " + strconv.Quote(c.FieldTerm)
	}
	return s
}

func (p *Projection) body() string {
	var sb strings.Builder
	if p.Distinct {
		sb.WriteString("DISTINCT ")
	}
	if p.Star {
		sb.WriteString("*")
	}
	for i, it := range p.Items {
		if i > 0 || p.Star {
			sb.WriteString(", ")
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	if len(p.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, s := range p.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(s.Expr.String())
			if s.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if p.Skip != nil {
		sb.WriteString(" SKIP " + p.Skip.String())
	}
	if p.Limit != nil {
		sb.WriteString(" LIMIT " + p.Limit.String())
	}
	return sb.String()
}

func (c *WithClause) String() string {
	s := "WITH " + c.body()
	if c.Where != nil {
		s += " WHERE " + c.Where.String()
	}
	return s
}

func (c *ReturnClause) String() string { return "RETURN " + c.body() }

func (c *CreateClause) String() string { return "CREATE " + patternString(c.Pattern) }

func (c *MergeClause) String() string {
	s := c.Form.String() + " " + patternString(c.Pattern)
	if len(c.OnCreate) > 0 {
		s += " ON CREATE SET " + setItemsString(c.OnCreate)
	}
	if len(c.OnMatch) > 0 {
		s += " ON MATCH SET " + setItemsString(c.OnMatch)
	}
	return s
}

func (c *SetClause) String() string { return "SET " + setItemsString(c.Items) }

func setItemsString(items []SetItem) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = it.String()
	}
	return strings.Join(parts, ", ")
}

func (c *RemoveClause) String() string {
	parts := make([]string, len(c.Items))
	for i, it := range c.Items {
		parts[i] = it.String()
	}
	return "REMOVE " + strings.Join(parts, ", ")
}

func (c *DeleteClause) String() string {
	parts := make([]string, len(c.Exprs))
	for i, e := range c.Exprs {
		parts[i] = e.String()
	}
	s := "DELETE " + strings.Join(parts, ", ")
	if c.Detach {
		s = "DETACH " + s
	}
	return s
}

func (c *ForeachClause) String() string {
	var body []string
	for _, cl := range c.Body {
		body = append(body, cl.String())
	}
	return fmt.Sprintf("FOREACH (%s IN %s | %s)", c.Var, c.List.String(), strings.Join(body, " "))
}

func (i *SetProp) String() string {
	return i.Target.String() + "." + i.Key + " = " + i.Value.String()
}

func (i *SetAllProps) String() string {
	op := " = "
	if i.Add {
		op = " += "
	}
	return i.Var + op + i.Value.String()
}

func (i *SetLabels) String() string {
	return i.Var + ":" + strings.Join(i.Labels, ":")
}

func (i *RemoveProp) String() string { return i.Target.String() + "." + i.Key }

func (i *RemoveLabels) String() string {
	return i.Var + ":" + strings.Join(i.Labels, ":")
}

func patternString(parts []*PatternPart) string {
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = p.String()
	}
	return strings.Join(out, ", ")
}

// String renders the pattern part in ASCII-art notation.
func (p *PatternPart) String() string {
	var sb strings.Builder
	if p.Var != "" {
		sb.WriteString(p.Var + " = ")
	}
	for i, n := range p.Nodes {
		if i > 0 {
			sb.WriteString(p.Rels[i-1].String())
		}
		sb.WriteString(n.String())
	}
	return sb.String()
}

// String renders the node pattern.
func (n *NodePattern) String() string {
	var sb strings.Builder
	sb.WriteString("(")
	sb.WriteString(n.Var)
	for _, l := range n.Labels {
		sb.WriteString(":" + l)
	}
	if n.Props != nil {
		if n.Var != "" || len(n.Labels) > 0 {
			sb.WriteString(" ")
		}
		sb.WriteString(n.Props.String())
	}
	sb.WriteString(")")
	return sb.String()
}

// String renders the relationship pattern.
func (r *RelPattern) String() string {
	var body strings.Builder
	body.WriteString(r.Var)
	for i, t := range r.Types {
		if i == 0 {
			body.WriteString(":" + t)
		} else {
			body.WriteString("|" + t)
		}
	}
	if r.VarLength {
		body.WriteString("*")
		if r.MinHops >= 0 {
			body.WriteString(strconv.Itoa(r.MinHops))
		}
		if r.MaxHops >= 0 || r.MinHops >= 0 {
			if !(r.MinHops >= 0 && r.MaxHops == r.MinHops) {
				body.WriteString("..")
				if r.MaxHops >= 0 {
					body.WriteString(strconv.Itoa(r.MaxHops))
				}
			}
		}
	}
	if r.Props != nil {
		body.WriteString(" " + r.Props.String())
	}
	mid := ""
	if body.Len() > 0 {
		mid = "[" + body.String() + "]"
	}
	switch r.Direction {
	case DirOut:
		return "-" + mid + "->"
	case DirIn:
		return "<-" + mid + "-"
	default:
		return "-" + mid + "-"
	}
}

// String renders the literal; a float prints in its shortest 'g' form,
// so an integral one shows no fraction.
func (e *Literal) String() string {
	if f, ok := e.Val.(value.Float); ok {
		return strconv.FormatFloat(float64(f), 'g', -1, 64)
	}
	return e.Val.String()
}

// String renders the folded value; value.Value rendering matches
// Literal rendering for scalars, so folded predicates read naturally in
// EXPLAIN output.
func (e *Const) String() string { return e.Val.String() }

func (e *Variable) String() string  { return e.Name }
func (e *Parameter) String() string { return "$" + e.Name }

func (e *PropAccess) String() string { return e.Expr.String() + "." + e.Key }

func (e *Index) String() string {
	return e.Expr.String() + "[" + e.Index.String() + "]"
}

func (e *Slice) String() string {
	from, to := "", ""
	if e.From != nil {
		from = e.From.String()
	}
	if e.To != nil {
		to = e.To.String()
	}
	return e.Expr.String() + "[" + from + ".." + to + "]"
}

func (e *UnaryOp) String() string {
	switch e.Op {
	case OpNot:
		return "NOT (" + e.Expr.String() + ")"
	case OpNeg:
		return "-(" + e.Expr.String() + ")"
	default:
		return "+(" + e.Expr.String() + ")"
	}
}

func (e *BinaryOp) String() string {
	return "(" + e.Left.String() + " " + binOpNames[e.Op] + " " + e.Right.String() + ")"
}

func (e *IsNull) String() string {
	if e.Not {
		return e.Expr.String() + " IS NOT NULL"
	}
	return e.Expr.String() + " IS NULL"
}

func (e *ListLit) String() string {
	parts := make([]string, len(e.Elems))
	for i, el := range e.Elems {
		parts[i] = el.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func (e *MapLit) String() string {
	parts := make([]string, len(e.Keys))
	for i, k := range e.Keys {
		parts[i] = k + ": " + e.Vals[i].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func (e *FuncCall) String() string {
	var sb strings.Builder
	sb.WriteString(e.Name + "(")
	if e.Distinct {
		sb.WriteString("DISTINCT ")
	}
	if e.Star {
		sb.WriteString("*")
	}
	for i, a := range e.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	sb.WriteString(")")
	return sb.String()
}

func (e *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if e.Test != nil {
		sb.WriteString(" " + e.Test.String())
	}
	for i := range e.Whens {
		sb.WriteString(" WHEN " + e.Whens[i].String() + " THEN " + e.Thens[i].String())
	}
	if e.Else != nil {
		sb.WriteString(" ELSE " + e.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

func (e *ListComprehension) String() string {
	var sb strings.Builder
	sb.WriteString("[" + e.Var + " IN " + e.List.String())
	if e.Where != nil {
		sb.WriteString(" WHERE " + e.Where.String())
	}
	if e.Proj != nil {
		sb.WriteString(" | " + e.Proj.String())
	}
	sb.WriteString("]")
	return sb.String()
}

func (e *Quantifier) String() string {
	return fmt.Sprintf("%s(%s IN %s WHERE %s)", e.Kind, e.Var, e.List.String(), e.Where.String())
}

func (e *Reduce) String() string {
	return fmt.Sprintf("reduce(%s = %s, %s IN %s | %s)",
		e.Acc, e.Init.String(), e.Var, e.List.String(), e.Expr.String())
}
