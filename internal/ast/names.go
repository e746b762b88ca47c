package ast

// Names numbers the variable names of a statement densely: each name
// has one slot, its position in an evaluation row (the record u of the
// paper's [[e]]_{G,u}, Section 8.1). A row is a []value.Value as wide
// as the table, in which nil means unbound and value.NullValue null.
// Every use of a name shares its slot: a driving-table column, a
// pattern variable, a projection alias and a binder variable of the
// same name are one slot, and a binder writes the slot for its body and
// restores it afterwards, which is how an inner binding shadows an
// outer one.
type Names map[string]int

// Slot returns name's slot, numbering it next if the table lacks it.
func (ns Names) Slot(name string) int {
	s, ok := ns[name]
	if !ok {
		s = len(ns)
		ns[name] = s
	}
	return s
}

// Slots returns the slot of each of cols. Every column of a plan is a
// name its statement resolved, or a driving table's column numbered
// after them, so a missing one is a bug.
func (ns Names) Slots(cols []string) []int {
	out := make([]int, len(cols))
	for j, c := range cols {
		s, ok := ns[c]
		if !ok {
			panic("ast: column `" + c + "` has no row slot")
		}
		out[j] = s
	}
	return out
}

// Resolve numbers every name stmt mentions and writes each slot into
// the nodes that carry one. It writes a field only when its value
// changes, so resolving an already resolved statement writes nothing.
// onPattern receives each MATCH and MERGE pattern tuple, in every UNION
// member and FOREACH body.
func (ns Names) Resolve(stmt *Statement, onPattern func([]*PatternPart)) {
	for _, q := range stmt.Queries {
		ns.clauses(q.Clauses, onPattern)
	}
}

func (ns Names) clauses(cs []Clause, onPattern func([]*PatternPart)) {
	for _, c := range cs {
		switch cl := c.(type) {
		case *MatchClause:
			ns.Pattern(cl.Pattern)
			ns.Expr(cl.Where)
			onPattern(cl.Pattern)
		case *UnwindClause:
			ns.Expr(cl.Expr)
			ns.Slot(cl.Var)
		case *LoadCSVClause:
			ns.Expr(cl.URL)
			ns.Slot(cl.Var)
		case *WithClause:
			ns.projection(&cl.Projection)
			ns.Expr(cl.Where)
		case *ReturnClause:
			ns.projection(&cl.Projection)
		case *CreateClause:
			ns.Pattern(cl.Pattern)
		case *MergeClause:
			ns.Pattern(cl.Pattern)
			ns.setItems(append(cl.OnCreate[:len(cl.OnCreate):len(cl.OnCreate)], cl.OnMatch...))
			onPattern(cl.Pattern)
		case *SetClause:
			ns.setItems(cl.Items)
		case *RemoveClause:
			for _, item := range cl.Items {
				switch it := item.(type) {
				case *RemoveProp:
					ns.Expr(it.Target)
				case *RemoveLabels:
					ns.set(&it.Slot, it.Var)
				}
			}
		case *DeleteClause:
			ns.Expr(cl.Exprs...)
		case *ForeachClause:
			ns.Slot(cl.Var)
			ns.Expr(cl.List)
			ns.clauses(cl.Body, onPattern)
		}
	}
}

func (ns Names) projection(p *Projection) {
	for _, it := range p.Items {
		ns.Expr(it.Expr)
		ns.Slot(it.Column())
	}
	for _, s := range p.OrderBy {
		ns.Expr(s.Expr)
	}
	ns.Expr(p.Skip, p.Limit)
}

func (ns Names) setItems(items []SetItem) {
	for _, item := range items {
		switch it := item.(type) {
		case *SetProp:
			ns.Expr(it.Target, it.Value)
		case *SetAllProps:
			ns.set(&it.Slot, it.Var)
			ns.Expr(it.Value)
		case *SetLabels:
			ns.set(&it.Slot, it.Var)
		}
	}
}

// Pattern resolves a pattern tuple's variables and property maps.
func (ns Names) Pattern(parts []*PatternPart) {
	for _, part := range parts {
		ns.set(&part.Slot, part.Var)
		for _, np := range part.Nodes {
			ns.set(&np.Slot, np.Var)
			ns.Expr(np.Props)
		}
		for _, rp := range part.Rels {
			ns.set(&rp.Slot, rp.Var)
			ns.Expr(rp.Props)
		}
	}
}

// Expr resolves the variables and binders of expressions.
func (ns Names) Expr(es ...Expr) {
	for _, e := range es {
		Walk(e, func(x Expr) bool {
			switch y := x.(type) {
			case *Variable:
				ns.set(&y.Slot, y.Name)
			case *ListComprehension:
				ns.set(&y.Slot, y.Var)
			case *Quantifier:
				ns.set(&y.Slot, y.Var)
			case *Reduce:
				ns.set(&y.AccSlot, y.Acc)
				ns.set(&y.Slot, y.Var)
			}
			return true
		})
	}
}

// set writes name's slot into field; an anonymous pattern element (no
// name) has none.
func (ns Names) set(field *int, name string) {
	if name == "" {
		return
	}
	if s := ns.Slot(name); *field != s {
		*field = s
	}
}
