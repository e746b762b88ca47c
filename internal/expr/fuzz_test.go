package expr

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/value"
)

// FuzzExprEval throws arbitrary strings at the expression pipeline:
// whatever parses must evaluate, over a slot row that binds n, without
// panicking, and folding must be invisible — Fold(e) evaluates to the same value or the same
// error-ness as e, so constant folding can never turn an error into a
// value (which would let a pushed predicate prune a row the unfolded
// plan would have errored on) or a value into an error.
func FuzzExprEval(f *testing.F) {
	for _, seed := range []string{
		"1 + 2 * 3",
		"n.age > 10 + 20",
		"toUpper('a') + toLower('B')",
		"rand() < 0.5",
		"1 / 0",
		"abs('x')",
		"coalesce(null, $p, 3)",
		"[x IN range(1, 5) WHERE x % 2 = 0 | x * x]",
		"reduce(s = 0, x IN [1, 2, 3] | s + x)",
		"CASE n.kind WHEN 'a' THEN 1 ELSE 2 END",
		"CASE WHEN exists(n.p) THEN n.p END",
		"all(x IN [1, 2] WHERE x > 0)",
		"split('a,b', ',')[0]",
		"datetime(0).year",
		"substring('abc', 1, 99)",
		"{a: 1, b: [null]}.a IS NOT NULL",
		"n.list[1..toInteger('2')]",
		"timestamp() - timestamp()",
		"size(tail(reverse([1, 2, 3])))",
		"exists(1, 2)",
		"noSuchFn(1)",
		"'a' STARTS WITH null",
		"[n IN [1, 2] | n] + [n.age]",
		"[x IN [1, 2] | [x IN [10, 20] | x] + [x]]",
		"reduce(x = 0, x IN [1, 2, 3] | x)",
		"[x IN [1] | x] + [x]",
	} {
		f.Add(seed)
	}
	g := graph.New()
	n := g.CreateNode([]string{"P"}, value.Map{
		"age":  value.Int(30),
		"kind": value.String("a"),
		"list": value.List{value.Int(1), value.Int(2), value.Int(3)},
	})
	env := Env{"n": value.Node{ID: int64(n.ID)}}
	params := map[string]value.Value{"p": value.Int(7)}

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1024 {
			return // deep nesting is the parser's fuzzer's problem
		}
		e, err := parser.ParseExpr(src)
		if err != nil {
			return
		}
		// Each phase gets a fresh step budget so runaway expressions
		// (nested comprehensions over huge ranges) terminate quickly; a
		// phase that exhausts it is skipped rather than compared, since
		// the cut-off point is not semantic.
		const steps = 1 << 18
		budget := func() *int64 { b := int64(steps); return &b }
		b1 := budget()
		ev := &Evaluator{Graph: g, Params: params, Budget: b1}
		row := rowOf(ev, e, env)
		v1, err1 := ev.Eval(e, row)
		b2 := budget()
		ev.Budget = b2
		folded := Fold(e, ev)
		b3 := budget()
		ev.Budget = b3
		v2, err2 := ev.Eval(folded, row)
		if *b1 <= 0 || *b2 <= 0 || *b3 <= 0 {
			return
		}
		if unstable(e) {
			return // rand()/timestamp() legitimately differ across evals
		}
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%q: folding changed error-ness: %v vs %v", src, err1, err2)
		}
		if err1 == nil && !value.Equivalent(v1, v2) {
			t.Fatalf("%q: folding changed the value: %v vs %v", src, v1, v2)
		}
	})
}

// unstable reports whether the expression calls a nondeterministic
// function, whose repeated evaluation may differ by design.
func unstable(e ast.Expr) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) bool {
		if f, ok := x.(*ast.FuncCall); ok {
			if d := LookupFunc(f.Name); d != nil && !d.Deterministic {
				found = true
			}
		}
		return !found
	})
	return found
}
