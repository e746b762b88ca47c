package expr

import (
	"repro/internal/ast"
)

// Fold returns e with closed, pure, deterministic subtrees replaced by
// plan-time constants (ast.Const), recursing into the children of any
// node that cannot fold whole. The result is semantically
// indistinguishable from e:
//
//   - Only subtrees with no free variables, no parameters, no aggregate
//     calls, and no function whose registry entry is missing or not
//     Pure+Deterministic are candidates, so a folded subtree's value
//     cannot depend on the row, the parameters, the clock or randomness.
//   - A candidate is folded only when its evaluation SUCCEEDS; a subtree
//     whose evaluation errors (1/0, type errors, wrong arity) is left
//     intact so the error still surfaces at run time, on exactly the
//     rows that reach it — folding can neither introduce nor hide
//     errors, and short-circuit (AND/OR) and branch (CASE) semantics
//     are preserved because an erroring operand stays unfolded while a
//     successfully folded one yields the same value the runtime would.
//
// Folding happens at plan build time, after parameters are bound but
// without reading them (parameters never fold), and it never rewrites
// pattern nodes: a folded clause keeps the statement's Pattern, by
// which the engine finds the pattern's match plan slot.
//
// The input tree is never mutated: rewritten nodes are fresh copies, so
// folding composes with the engine-wide statement cache sharing one AST
// across sessions.
func Fold(e ast.Expr, ev *Evaluator) ast.Expr {
	out, _ := foldExpr(e, ev)
	return out
}

func foldExpr(e ast.Expr, ev *Evaluator) (ast.Expr, bool) {
	if e == nil {
		return nil, false
	}
	switch e.(type) {
	case *ast.Literal, *ast.Const, *ast.Variable, *ast.Parameter:
		// Leaves: literals evaluate in O(1) already, variables and
		// parameters are row/binding dependent.
		return e, false
	}
	if foldable(e) {
		if v, err := ev.Eval(e, ev.Row()); err == nil {
			return &ast.Const{Val: v}, true
		}
	}
	return foldChildren(e, ev)
}

// foldable reports whether e is a closed candidate: evaluating it at
// plan time is guaranteed to observe nothing execution would not.
func foldable(e ast.Expr) bool {
	if len(ast.Variables(e)) > 0 {
		return false
	}
	ok := true
	ast.Walk(e, func(x ast.Expr) bool {
		switch f := x.(type) {
		case *ast.Parameter:
			ok = false
		case *ast.FuncCall:
			if f.Distinct || f.Star {
				ok = false
				break
			}
			// Aggregates and unknown functions have no registry entry
			// and block folding; so do impure or nondeterministic ones.
			def := LookupFunc(f.Name)
			if def == nil || !def.Pure || !def.Deterministic {
				ok = false
			}
		}
		return ok
	})
	return ok
}

func foldList(es []ast.Expr, ev *Evaluator) ([]ast.Expr, bool) {
	changed := false
	out := es
	for i, e := range es {
		f, ch := foldExpr(e, ev)
		if ch && !changed {
			out = append([]ast.Expr(nil), es...)
			changed = true
		}
		if changed {
			out[i] = f
		}
	}
	return out, changed
}

// foldChildren folds e's subexpressions, returning a fresh copy of e
// when any of them changed and e itself otherwise.
func foldChildren(e ast.Expr, ev *Evaluator) (ast.Expr, bool) {
	switch x := e.(type) {
	case *ast.PropAccess:
		if inner, ch := foldExpr(x.Expr, ev); ch {
			return &ast.PropAccess{Expr: inner, Key: x.Key}, true
		}
	case *ast.Index:
		base, ch1 := foldExpr(x.Expr, ev)
		idx, ch2 := foldExpr(x.Index, ev)
		if ch1 || ch2 {
			return &ast.Index{Expr: base, Index: idx}, true
		}
	case *ast.Slice:
		base, ch1 := foldExpr(x.Expr, ev)
		from, ch2 := foldExpr(x.From, ev)
		to, ch3 := foldExpr(x.To, ev)
		if ch1 || ch2 || ch3 {
			return &ast.Slice{Expr: base, From: from, To: to}, true
		}
	case *ast.UnaryOp:
		if inner, ch := foldExpr(x.Expr, ev); ch {
			return &ast.UnaryOp{Op: x.Op, Expr: inner}, true
		}
	case *ast.BinaryOp:
		l, ch1 := foldExpr(x.Left, ev)
		r, ch2 := foldExpr(x.Right, ev)
		if ch1 || ch2 {
			return &ast.BinaryOp{Op: x.Op, Left: l, Right: r}, true
		}
	case *ast.IsNull:
		if inner, ch := foldExpr(x.Expr, ev); ch {
			return &ast.IsNull{Expr: inner, Not: x.Not}, true
		}
	case *ast.ListLit:
		if elems, ch := foldList(x.Elems, ev); ch {
			return &ast.ListLit{Elems: elems}, true
		}
	case *ast.MapLit:
		if vals, ch := foldList(x.Vals, ev); ch {
			return &ast.MapLit{Keys: x.Keys, Vals: vals}, true
		}
	case *ast.FuncCall:
		// Aggregate calls are intentionally rebuilt-free: the caller
		// (internal/plan) skips items containing aggregates because the
		// aggregation machinery keys results by FuncCall node identity.
		if args, ch := foldList(x.Args, ev); ch {
			return &ast.FuncCall{Name: x.Name, Distinct: x.Distinct, Star: x.Star, Args: args}, true
		}
	case *ast.CaseExpr:
		test, ch1 := foldExpr(x.Test, ev)
		whens, ch2 := foldList(x.Whens, ev)
		thens, ch3 := foldList(x.Thens, ev)
		els, ch4 := foldExpr(x.Else, ev)
		if ch1 || ch2 || ch3 || ch4 {
			return &ast.CaseExpr{Test: test, Whens: whens, Thens: thens, Else: els}, true
		}
	case *ast.ListComprehension:
		// Only the source list may fold: the filter and projection
		// reference the binder variable (if they did not, the whole
		// comprehension would usually be closed and fold above).
		lst, ch1 := foldExpr(x.List, ev)
		where, ch2 := foldExpr(x.Where, ev)
		proj, ch3 := foldExpr(x.Proj, ev)
		if ch1 || ch2 || ch3 {
			return &ast.ListComprehension{Var: x.Var, Slot: x.Slot, List: lst, Where: where, Proj: proj}, true
		}
	case *ast.Quantifier:
		lst, ch1 := foldExpr(x.List, ev)
		where, ch2 := foldExpr(x.Where, ev)
		if ch1 || ch2 {
			return &ast.Quantifier{Kind: x.Kind, Var: x.Var, Slot: x.Slot, List: lst, Where: where}, true
		}
	case *ast.Reduce:
		init, ch1 := foldExpr(x.Init, ev)
		lst, ch2 := foldExpr(x.List, ev)
		body, ch3 := foldExpr(x.Expr, ev)
		if ch1 || ch2 || ch3 {
			return &ast.Reduce{Acc: x.Acc, AccSlot: x.AccSlot, Init: init, Var: x.Var, Slot: x.Slot, List: lst, Expr: body}, true
		}
	}
	return e, false
}
