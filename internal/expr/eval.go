// Package expr evaluates Cypher expressions over a property graph and a
// driving-table record, implementing the semantics of expressions
// [[e]]_{G,u} from the paper's formal framework (Section 8.1): an
// expression is evaluated against a graph G and an assignment u of values
// to its free variables.
//
// Comparison and boolean operators follow SQL-style ternary logic; see
// package value for the three comparison regimes.
package expr

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/value"
)

// Evaluator evaluates expressions against a graph and parameters, over
// rows laid out by a statement's name table: an expression's variables
// read their row slots (see ast.Names).
type Evaluator struct {
	Graph  *graph.Graph
	Params map[string]value.Value
	// Names is the statement's name table, the layout of its rows.
	Names ast.Names
	// Binds holds the values of the statement's bound literals (see
	// ast.Literal.Bind) for the text being executed; nil evaluates every
	// literal to its own value.
	Binds []value.Value

	// AggResults, when non-nil, maps aggregate FuncCall nodes to their
	// precomputed per-group results; the projection machinery in the
	// engine fills it before evaluating a grouped return item.
	AggResults map[ast.Expr]value.Value

	// Budget, when non-nil, caps the number of expression nodes this
	// evaluator may visit over its lifetime; once exhausted, every
	// evaluation errors. The engine leaves it nil (unlimited) — it
	// exists so adversarial harnesses (fuzzers) can bound runaway
	// expressions like nested comprehensions over huge ranges.
	Budget *int64
}

// Row returns a row over the evaluator's names with every slot unbound.
func (ev *Evaluator) Row() []value.Value { return make([]value.Value, len(ev.Names)) }

// Eval evaluates e under row, a row over the evaluator's names (see
// Row). A binder writes its variable's slot of row while its body
// evaluates and restores it before returning, so the caller sees row
// unchanged.
func (ev *Evaluator) Eval(e ast.Expr, row []value.Value) (value.Value, error) {
	if ev.Budget != nil {
		if *ev.Budget <= 0 {
			return nil, fmt.Errorf("expression evaluation budget exhausted")
		}
		*ev.Budget--
	}
	switch x := e.(type) {
	case *ast.Literal:
		if x.Bind > 0 && ev.Binds != nil {
			return ev.Binds[x.Bind-1], nil
		}
		return x.Val, nil
	case *ast.Const:
		return x.Val, nil
	case *ast.Variable:
		if v := row[x.Slot]; v != nil {
			return v, nil
		}
		return nil, fmt.Errorf("variable `%s` not defined", x.Name)
	case *ast.Parameter:
		v, ok := ev.Params[x.Name]
		if !ok {
			return nil, fmt.Errorf("parameter $%s not supplied", x.Name)
		}
		return v, nil
	case *ast.PropAccess:
		base, err := ev.Eval(x.Expr, row)
		if err != nil {
			return nil, err
		}
		return ev.propValue(base, x.Key, &x.KeySym)
	case *ast.Index:
		return ev.evalIndex(x, row)
	case *ast.Slice:
		return ev.evalSlice(x, row)
	case *ast.UnaryOp:
		return ev.evalUnary(x, row)
	case *ast.BinaryOp:
		return ev.evalBinary(x, row)
	case *ast.IsNull:
		v, err := ev.Eval(x.Expr, row)
		if err != nil {
			return nil, err
		}
		isNull := value.IsNull(v)
		if x.Not {
			return value.Bool(!isNull), nil
		}
		return value.Bool(isNull), nil
	case *ast.ListLit:
		out := make(value.List, len(x.Elems))
		for i, el := range x.Elems {
			v, err := ev.Eval(el, row)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case *ast.MapLit:
		out := make(value.Map, len(x.Keys))
		for i, k := range x.Keys {
			v, err := ev.Eval(x.Vals[i], row)
			if err != nil {
				return nil, err
			}
			out[k] = v
		}
		return out, nil
	case *ast.FuncCall:
		if ev.AggResults != nil && ast.AggregateFuncs[x.Name] {
			if v, ok := ev.AggResults[x]; ok {
				return v, nil
			}
			return nil, fmt.Errorf("aggregate %s() used outside an aggregating projection", x.Name)
		}
		return ev.evalFunc(x, row)
	case *ast.CaseExpr:
		return ev.evalCase(x, row)
	case *ast.ListComprehension:
		return ev.evalListComp(x, row)
	case *ast.Quantifier:
		return ev.evalQuantifier(x, row)
	case *ast.Reduce:
		return ev.evalReduce(x, row)
	default:
		return nil, fmt.Errorf("unsupported expression %T", e)
	}
}

// EvalBool evaluates a predicate expression to a truth value. Non-boolean
// non-null results are an error.
func (ev *Evaluator) EvalBool(e ast.Expr, row []value.Value) (value.Tri, error) {
	v, err := ev.Eval(e, row)
	if err != nil {
		return value.Unknown, err
	}
	t, ok := value.TriOf(v)
	if !ok {
		return value.Unknown, fmt.Errorf("predicate evaluated to %s, expected Boolean", v.Kind())
	}
	return t, nil
}

// EvalPropMap evaluates a node/relationship property-map expression
// (a map literal or parameter) to a value.Map. A nil expression yields an
// empty map.
func (ev *Evaluator) EvalPropMap(e ast.Expr, row []value.Value) (value.Map, error) {
	if e == nil {
		return value.Map{}, nil
	}
	v, err := ev.Eval(e, row)
	if err != nil {
		return nil, err
	}
	m, ok := value.AsMap(v)
	if !ok {
		return nil, fmt.Errorf("properties must be a map, got %s", v.Kind())
	}
	return m, nil
}

// propValue resolves property access on nodes, relationships and maps.
// Access on a missing (deleted) entity yields null: this is the lenient
// behaviour the legacy engine relies on for Section 4.2, and the revised
// engine nulls deleted references before expressions can observe them.
// A non-nil cache is the key's Resolve cache word.
func (ev *Evaluator) propValue(base value.Value, key string, cache *atomic.Uint64) (value.Value, error) {
	switch b := base.(type) {
	case value.Null:
		return value.NullValue, nil
	case value.Node:
		n := ev.Graph.Node(graph.NodeID(b.ID))
		if n == nil {
			return value.NullValue, nil
		}
		return ev.storedProp(n.Props, key, cache), nil
	case value.Rel:
		r := ev.Graph.Rel(graph.RelID(b.ID))
		if r == nil {
			return value.NullValue, nil
		}
		return ev.storedProp(r.Props, key, cache), nil
	case value.Map:
		if v, ok := b[key]; ok {
			return v, nil
		}
		return value.NullValue, nil
	default:
		return nil, fmt.Errorf("type error: cannot access property %q on %s", key, base.Kind())
	}
}

// storedProp returns the value ps stores under key, or null.
func (ev *Evaluator) storedProp(ps graph.Props, key string, cache *atomic.Uint64) value.Value {
	var id graph.SymID
	var ok bool
	if cache != nil {
		id, ok = ev.Graph.Resolve(key, cache)
	} else {
		id, ok = ev.Graph.Sym(key)
	}
	if ok {
		if v, ok := ps.Get(id); ok {
			return v
		}
	}
	return value.NullValue
}

func (ev *Evaluator) evalIndex(x *ast.Index, row []value.Value) (value.Value, error) {
	base, err := ev.Eval(x.Expr, row)
	if err != nil {
		return nil, err
	}
	idx, err := ev.Eval(x.Index, row)
	if err != nil {
		return nil, err
	}
	if value.IsNull(base) || value.IsNull(idx) {
		return value.NullValue, nil
	}
	switch b := base.(type) {
	case value.List:
		i, ok := value.AsInt(idx)
		if !ok {
			return nil, fmt.Errorf("list index must be an integer, got %s", idx.Kind())
		}
		if i < 0 {
			i += int64(len(b))
		}
		if i < 0 || i >= int64(len(b)) {
			return value.NullValue, nil
		}
		return b[i], nil
	case value.Map:
		k, ok := value.AsString(idx)
		if !ok {
			return nil, fmt.Errorf("map key must be a string, got %s", idx.Kind())
		}
		if v, ok := b[k]; ok {
			return v, nil
		}
		return value.NullValue, nil
	case value.Node, value.Rel:
		k, ok := value.AsString(idx)
		if !ok {
			return nil, fmt.Errorf("property key must be a string, got %s", idx.Kind())
		}
		return ev.propValue(base, k, nil)
	default:
		return nil, fmt.Errorf("type error: cannot index %s", base.Kind())
	}
}

func (ev *Evaluator) evalSlice(x *ast.Slice, row []value.Value) (value.Value, error) {
	base, err := ev.Eval(x.Expr, row)
	if err != nil {
		return nil, err
	}
	if value.IsNull(base) {
		return value.NullValue, nil
	}
	lst, ok := value.AsList(base)
	if !ok {
		return nil, fmt.Errorf("type error: cannot slice %s", base.Kind())
	}
	from, to := int64(0), int64(len(lst))
	if x.From != nil {
		v, err := ev.Eval(x.From, row)
		if err != nil {
			return nil, err
		}
		if value.IsNull(v) {
			return value.NullValue, nil
		}
		if from, ok = value.AsInt(v); !ok {
			return nil, fmt.Errorf("slice bound must be an integer")
		}
	}
	if x.To != nil {
		v, err := ev.Eval(x.To, row)
		if err != nil {
			return nil, err
		}
		if value.IsNull(v) {
			return value.NullValue, nil
		}
		if to, ok = value.AsInt(v); !ok {
			return nil, fmt.Errorf("slice bound must be an integer")
		}
	}
	n := int64(len(lst))
	if from < 0 {
		from += n
	}
	if to < 0 {
		to += n
	}
	if from < 0 {
		from = 0
	}
	if to > n {
		to = n
	}
	if from >= to {
		return value.List{}, nil
	}
	out := make(value.List, to-from)
	copy(out, lst[from:to])
	return out, nil
}

func (ev *Evaluator) evalUnary(x *ast.UnaryOp, row []value.Value) (value.Value, error) {
	switch x.Op {
	case ast.OpNot:
		t, err := ev.EvalBool(x.Expr, row)
		if err != nil {
			return nil, err
		}
		return t.Not().Value(), nil
	case ast.OpNeg:
		v, err := ev.Eval(x.Expr, row)
		if err != nil {
			return nil, err
		}
		return value.Neg(v)
	default: // OpPos
		v, err := ev.Eval(x.Expr, row)
		if err != nil {
			return nil, err
		}
		if !value.IsNull(v) && !value.IsNumber(v) {
			return nil, fmt.Errorf("type error: unary + on %s", v.Kind())
		}
		return v, nil
	}
}

func (ev *Evaluator) evalBinary(x *ast.BinaryOp, row []value.Value) (value.Value, error) {
	switch x.Op {
	case ast.OpAnd, ast.OpOr, ast.OpXor:
		return ev.evalLogic(x, row)
	}
	l, err := ev.Eval(x.Left, row)
	if err != nil {
		return nil, err
	}
	r, err := ev.Eval(x.Right, row)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case ast.OpEq:
		return value.Equal(l, r).Value(), nil
	case ast.OpNeq:
		return value.Equal(l, r).Not().Value(), nil
	case ast.OpLt:
		return value.Less(l, r).Value(), nil
	case ast.OpGt:
		return value.Less(r, l).Value(), nil
	case ast.OpLeq:
		return value.Less(r, l).Not().Value(), nil
	case ast.OpGeq:
		return value.Less(l, r).Not().Value(), nil
	case ast.OpAdd:
		return value.Add(l, r)
	case ast.OpSub:
		return value.Sub(l, r)
	case ast.OpMul:
		return value.Mul(l, r)
	case ast.OpDiv:
		return value.Div(l, r)
	case ast.OpMod:
		return value.Mod(l, r)
	case ast.OpPow:
		return value.Pow(l, r)
	case ast.OpIn:
		return evalIn(l, r)
	case ast.OpStartsWith, ast.OpEndsWith, ast.OpContains:
		return evalStringPredicate(x.Op, l, r)
	default:
		return nil, fmt.Errorf("unsupported binary operator")
	}
}

// evalLogic evaluates AND/OR/XOR with Kleene semantics, short-circuiting
// when the left operand already determines the result.
func (ev *Evaluator) evalLogic(x *ast.BinaryOp, row []value.Value) (value.Value, error) {
	lt, err := ev.EvalBool(x.Left, row)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case ast.OpAnd:
		if lt == value.False {
			return value.Bool(false), nil
		}
	case ast.OpOr:
		if lt == value.True {
			return value.Bool(true), nil
		}
	}
	rt, err := ev.EvalBool(x.Right, row)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case ast.OpAnd:
		return lt.And(rt).Value(), nil
	case ast.OpOr:
		return lt.Or(rt).Value(), nil
	default:
		return lt.Xor(rt).Value(), nil
	}
}

// evalIn implements ternary list membership: true if some element equals
// the needle, null if the needle is null or some comparison is unknown,
// false otherwise.
func evalIn(needle, hay value.Value) (value.Value, error) {
	if value.IsNull(hay) {
		return value.NullValue, nil
	}
	lst, ok := value.AsList(hay)
	if !ok {
		return nil, fmt.Errorf("type error: IN requires a list, got %s", hay.Kind())
	}
	result := value.False
	for _, el := range lst {
		switch value.Equal(needle, el) {
		case value.True:
			return value.Bool(true), nil
		case value.Unknown:
			result = value.Unknown
		}
	}
	if value.IsNull(needle) && len(lst) > 0 {
		result = value.Unknown
	}
	return result.Value(), nil
}

func evalStringPredicate(op ast.BinaryOpKind, l, r value.Value) (value.Value, error) {
	if value.IsNull(l) || value.IsNull(r) {
		return value.NullValue, nil
	}
	ls, lok := value.AsString(l)
	rs, rok := value.AsString(r)
	if !lok || !rok {
		return nil, fmt.Errorf("type error: string predicate on %s and %s", l.Kind(), r.Kind())
	}
	switch op {
	case ast.OpStartsWith:
		return value.Bool(strings.HasPrefix(ls, rs)), nil
	case ast.OpEndsWith:
		return value.Bool(strings.HasSuffix(ls, rs)), nil
	default:
		return value.Bool(strings.Contains(ls, rs)), nil
	}
}

func (ev *Evaluator) evalCase(x *ast.CaseExpr, row []value.Value) (value.Value, error) {
	if x.Test != nil {
		test, err := ev.Eval(x.Test, row)
		if err != nil {
			return nil, err
		}
		for i, w := range x.Whens {
			wv, err := ev.Eval(w, row)
			if err != nil {
				return nil, err
			}
			if value.Equal(test, wv) == value.True {
				return ev.Eval(x.Thens[i], row)
			}
		}
	} else {
		for i, w := range x.Whens {
			t, err := ev.EvalBool(w, row)
			if err != nil {
				return nil, err
			}
			if t == value.True {
				return ev.Eval(x.Thens[i], row)
			}
		}
	}
	if x.Else != nil {
		return ev.Eval(x.Else, row)
	}
	return value.NullValue, nil
}

func (ev *Evaluator) evalListComp(x *ast.ListComprehension, row []value.Value) (value.Value, error) {
	src, err := ev.Eval(x.List, row)
	if err != nil {
		return nil, err
	}
	if value.IsNull(src) {
		return value.NullValue, nil
	}
	lst, ok := value.AsList(src)
	if !ok {
		return nil, fmt.Errorf("type error: comprehension over %s", src.Kind())
	}
	defer restore(row, x.Slot, row[x.Slot])
	out := make(value.List, 0, len(lst))
	for _, el := range lst {
		row[x.Slot] = el
		if x.Where != nil {
			t, err := ev.EvalBool(x.Where, row)
			if err != nil {
				return nil, err
			}
			if t != value.True {
				continue
			}
		}
		if x.Proj != nil {
			v, err := ev.Eval(x.Proj, row)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		} else {
			out = append(out, el)
		}
	}
	return out, nil
}

func (ev *Evaluator) evalQuantifier(x *ast.Quantifier, row []value.Value) (value.Value, error) {
	src, err := ev.Eval(x.List, row)
	if err != nil {
		return nil, err
	}
	if value.IsNull(src) {
		return value.NullValue, nil
	}
	lst, ok := value.AsList(src)
	if !ok {
		return nil, fmt.Errorf("type error: quantifier over %s", src.Kind())
	}
	defer restore(row, x.Slot, row[x.Slot])
	trues, unknowns := 0, 0
	for _, el := range lst {
		row[x.Slot] = el
		t, err := ev.EvalBool(x.Where, row)
		if err != nil {
			return nil, err
		}
		switch t {
		case value.True:
			trues++
		case value.Unknown:
			unknowns++
		}
	}
	n := len(lst)
	switch x.Kind {
	case ast.QuantAll:
		if trues == n {
			return value.Bool(true), nil
		}
		if trues+unknowns == n {
			return value.NullValue, nil
		}
		return value.Bool(false), nil
	case ast.QuantAny:
		if trues > 0 {
			return value.Bool(true), nil
		}
		if unknowns > 0 {
			return value.NullValue, nil
		}
		return value.Bool(false), nil
	case ast.QuantNone:
		if trues > 0 {
			return value.Bool(false), nil
		}
		if unknowns > 0 {
			return value.NullValue, nil
		}
		return value.Bool(true), nil
	default: // QuantSingle
		if unknowns > 0 {
			return value.NullValue, nil
		}
		return value.Bool(trues == 1), nil
	}
}

func (ev *Evaluator) evalReduce(x *ast.Reduce, row []value.Value) (value.Value, error) {
	acc, err := ev.Eval(x.Init, row)
	if err != nil {
		return nil, err
	}
	src, err := ev.Eval(x.List, row)
	if err != nil {
		return nil, err
	}
	if value.IsNull(src) {
		return value.NullValue, nil
	}
	lst, ok := value.AsList(src)
	if !ok {
		return nil, fmt.Errorf("type error: reduce over %s", src.Kind())
	}
	defer restore(row, x.AccSlot, row[x.AccSlot])
	defer restore(row, x.Slot, row[x.Slot])
	for _, el := range lst {
		// The element binding is innermost: when the accumulator and
		// element share a name, and so a slot, the element shadows.
		row[x.AccSlot] = acc
		row[x.Slot] = el
		acc, err = ev.Eval(x.Expr, row)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// restore writes v back into slot s of row: a binder's deferred undo.
func restore(row []value.Value, s int, v value.Value) { row[s] = v }
