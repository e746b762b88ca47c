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
		ns.namer().clauses(q.Clauses, onPattern)
	}
}

// Pattern resolves a pattern tuple's variables and property maps.
func (ns Names) Pattern(parts []*PatternPart) { ns.namer().pattern(parts) }

// Expr resolves the variables and binders of expressions.
func (ns Names) Expr(es ...Expr) { ns.namer().expr(es...) }

// namer numbers each name and writes its slot into field, if any.
func (ns Names) namer() namer {
	return func(field *int, name string) {
		if name == "" {
			return
		}
		if s := ns.Slot(name); field != nil && *field != s {
			*field = s
		}
	}
}

// Reads adds to reads every name clauses cs mention, which is every
// name they may read from the table they are handed and more: the walk
// is Resolve's, so a binder, an alias, and a name mentioned after a
// projection dropped its column count too. It reports false if a
// clause projects * (WITH * or RETURN *), which reads every column in
// scope.
func Reads(cs []Clause, reads map[string]bool) bool {
	for _, c := range cs {
		switch cl := c.(type) {
		case *WithClause:
			if cl.Star {
				return false
			}
		case *ReturnClause:
			if cl.Star {
				return false
			}
		}
	}
	namer(func(_ *int, name string) {
		if name != "" {
			reads[name] = true
		}
	}).clauses(cs, func([]*PatternPart) {})
	return true
}

// namer receives each name a walk over clauses meets, with the node
// field that holds the name's slot (nil for a name no node carries the
// slot of); an anonymous pattern element meets the empty name.
type namer func(field *int, name string)

func (n namer) clauses(cs []Clause, onPattern func([]*PatternPart)) {
	for _, c := range cs {
		switch cl := c.(type) {
		case *MatchClause:
			n.pattern(cl.Pattern)
			n.expr(cl.Where)
			onPattern(cl.Pattern)
		case *UnwindClause:
			n.expr(cl.Expr)
			n(nil, cl.Var)
		case *LoadCSVClause:
			n.expr(cl.URL)
			n(nil, cl.Var)
		case *WithClause:
			n.projection(&cl.Projection)
			n.expr(cl.Where)
		case *ReturnClause:
			n.projection(&cl.Projection)
		case *CreateClause:
			n.pattern(cl.Pattern)
		case *MergeClause:
			n.pattern(cl.Pattern)
			n.setItems(append(cl.OnCreate[:len(cl.OnCreate):len(cl.OnCreate)], cl.OnMatch...))
			onPattern(cl.Pattern)
		case *SetClause:
			n.setItems(cl.Items)
		case *RemoveClause:
			for _, item := range cl.Items {
				switch it := item.(type) {
				case *RemoveProp:
					n.expr(it.Target)
				case *RemoveLabels:
					n(&it.Slot, it.Var)
				}
			}
		case *DeleteClause:
			n.expr(cl.Exprs...)
		case *ForeachClause:
			n(nil, cl.Var)
			n.expr(cl.List)
			n.clauses(cl.Body, onPattern)
		}
	}
}

func (n namer) projection(p *Projection) {
	for _, it := range p.Items {
		n.expr(it.Expr)
		n(nil, it.Column())
	}
	for _, s := range p.OrderBy {
		n.expr(s.Expr)
	}
	n.expr(p.Skip, p.Limit)
}

func (n namer) setItems(items []SetItem) {
	for _, item := range items {
		switch it := item.(type) {
		case *SetProp:
			n.expr(it.Target, it.Value)
		case *SetAllProps:
			n(&it.Slot, it.Var)
			n.expr(it.Value)
		case *SetLabels:
			n(&it.Slot, it.Var)
		}
	}
}

func (n namer) pattern(parts []*PatternPart) {
	for _, part := range parts {
		n(&part.Slot, part.Var)
		for _, np := range part.Nodes {
			n(&np.Slot, np.Var)
			n.expr(np.Props)
		}
		for _, rp := range part.Rels {
			n(&rp.Slot, rp.Var)
			n.expr(rp.Props)
		}
	}
}

func (n namer) expr(es ...Expr) {
	for _, e := range es {
		Walk(e, func(x Expr) bool {
			switch y := x.(type) {
			case *Variable:
				n(&y.Slot, y.Name)
			case *ListComprehension:
				n(&y.Slot, y.Var)
			case *Quantifier:
				n(&y.Slot, y.Var)
			case *Reduce:
				n(&y.AccSlot, y.Acc)
				n(&y.Slot, y.Var)
			}
			return true
		})
	}
}
