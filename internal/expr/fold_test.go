package expr

import (
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/value"
)

// parseExpr parses src and resolves its names into a fresh table,
// which it returns.
func parseExpr(t *testing.T, src string) (ast.Expr, ast.Names) {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	names := ast.Names{}
	names.Expr(e)
	return e, names
}

// foldStr folds src as the engine does when it prepares a statement:
// with an evaluator that has no graph and no parameters.
func foldStr(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, names := parseExpr(t, src)
	return Fold(e, &Evaluator{Names: names})
}

// TestFoldPureCallsWithoutGraph folds a call to every Pure and
// Deterministic function, at each arity it accepts up to three, over
// literal arguments of every kind, with an evaluator like the engine's
// when it prepares a statement: no graph, no parameters. No call may
// panic, the fold must be the one an evaluator with a graph and
// parameters gives, and the folded call must evaluate as the call does.
func TestFoldPureCallsWithoutGraph(t *testing.T) {
	var lits []ast.Expr
	for _, src := range []string{"null", "true", "7", "-2.5", "'ab'", "[1, 'a', null]", "{k: 1}"} {
		e, _ := parseExpr(t, src)
		lits = append(lits, e)
	}
	full := &Evaluator{Graph: graph.New(), Params: map[string]value.Value{"p": value.Int(1)}}
	prep := &Evaluator{}
	calls := 0
	for _, d := range Defs() {
		if !d.Pure || !d.Deterministic {
			continue
		}
		hi := d.MaxArgs
		if hi < 0 || hi > 3 {
			hi = max(d.MinArgs, 3)
		}
		for arity := d.MinArgs; arity <= hi; arity++ {
			args := make([]ast.Expr, arity)
			var each func(i int)
			each = func(i int) {
				if i < arity {
					for _, l := range lits {
						args[i] = l
						each(i + 1)
					}
					return
				}
				call := &ast.FuncCall{Name: d.Name, Args: slices.Clone(args)}
				calls++
				folded := Fold(call, prep)
				if want := Fold(call, full); folded.String() != want.String() {
					t.Fatalf("%s: folds to %s without a graph, %s with one", call, folded, want)
				}
				v1, err1 := full.Eval(call, nil)
				v2, err2 := full.Eval(folded, nil)
				if (err1 == nil) != (err2 == nil) || err1 == nil && !value.Equivalent(v1, v2) {
					t.Fatalf("%s: %v, %v unfolded; %v, %v folded", call, v1, err1, v2, err2)
				}
			}
			each(0)
		}
	}
	t.Logf("%d calls folded", calls)
}

func TestFoldCollapsesClosedPureSubtrees(t *testing.T) {
	cases := map[string]string{
		"10 + 20":                                    "30",
		"n.age > 10 + 20":                            "(n.age > 30)",
		"size('ab') + size([1, 2, 3])":               "5",
		"toUpper('a' + 'b')":                         "'AB'",
		"[1, 2][0] + 1":                              "2",
		"CASE WHEN true THEN 1 ELSE 2 END":           "1",
		"reduce(s = 0, x IN [1, 2, 3] | s + x)":      "6",
		"[x IN range(1, 4) WHERE x % 2 = 0 | x * x]": "[4, 16]",
		"exists(null) OR n.flag":                     "(false OR n.flag)",
		"n.name + ('a' + 'b')":                       "(n.name + 'ab')",
		// A value over maxFoldSize stays as written, children and all,
		// unless an enclosing subtree reduces it to a small one.
		"size(range(1, 1000000))":          "1000000",
		"range(1, 1000 + 25)":              "range(1, (1000 + 25))",
		"n.x IN range(1, 1000000)":         "(n.x IN range(1, 1000000))",
		"[range(1, 600), range(1, 600)]":   "[range(1, 600), range(1, 600)]",
		"{a: range(1, 2000)}.a[0] + 1 + 2": "4",
	}
	for src, want := range cases {
		got := foldStr(t, src).String()
		if got != want {
			t.Errorf("Fold(%q) prints %.60q, want %q", src, got, want)
		}
	}
}

func TestFoldLeavesOpenOrUnsafeSubtreesAlone(t *testing.T) {
	// Variables, parameters, nondeterministic calls, graph readers and
	// erroring subtrees must survive folding verbatim.
	for _, src := range []string{
		"n.age > $min",     // parameter
		"x + 1",            // free variable
		"rand() < 0.5",     // nondeterministic
		"timestamp() - 1",  // nondeterministic
		"1 / 0",            // errors: left intact so the error surfaces at run time
		"toUpper(5) = 'x'", // errors inside a comparison
		"labels(n)",        // graph reader on a row variable
	} {
		e, _ := parseExpr(t, src)
		folded := Fold(e, &Evaluator{Graph: graph.New()})
		if folded.String() != e.String() {
			t.Errorf("Fold(%q) = %q, want unchanged", src, folded.String())
		}
	}
}

// TestFoldErrorPreservation is the behavior-preservation core: an
// expression that errors evaluates to the same error before and after
// folding, and one that succeeds evaluates to the same value.
func TestFoldErrorPreservation(t *testing.T) {
	ev := &Evaluator{Graph: graph.New()}
	for _, src := range []string{
		"1 / 0",
		"1 + 2 * 3",
		"toUpper(5)",
		"abs('x')",
		"coalesce(1 / 0, 2)",
		"CASE WHEN 1 = 1 THEN 2 ELSE 1 / 0 END",
		"true OR 1 / 0 = 1",
	} {
		e, _ := parseExpr(t, src)
		wantV, wantErr := ev.Eval(e, nil)
		folded := Fold(e, ev)
		gotV, gotErr := ev.Eval(folded, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("%q: error changed across folding: %v vs %v", src, wantErr, gotErr)
			continue
		}
		if wantErr == nil && !value.Equivalent(wantV, gotV) {
			t.Errorf("%q: value changed across folding: %v vs %v", src, wantV, gotV)
		}
	}
}

func TestFoldReturnsSamePointerWhenNothingFolds(t *testing.T) {
	e, _ := parseExpr(t, "n.age > $min")
	if folded := Fold(e, &Evaluator{Graph: graph.New()}); folded != e {
		t.Error("Fold should return the identical node when nothing changed")
	}
}

func TestFoldDoesNotMutateInput(t *testing.T) {
	e, _ := parseExpr(t, "n.age > 10 + 20")
	before := e.String()
	folded := Fold(e, &Evaluator{Graph: graph.New()})
	if e.String() != before {
		t.Errorf("input tree mutated: %q -> %q", before, e.String())
	}
	if folded == e {
		t.Error("a folded tree must be a fresh copy, not the input")
	}
}

func TestFoldProducesConstNodes(t *testing.T) {
	folded := foldStr(t, "10 + 20")
	c, ok := folded.(*ast.Const)
	if !ok {
		t.Fatalf("Fold(10 + 20) = %T, want *ast.Const", folded)
	}
	if !value.Equivalent(c.Val, value.Int(30)) {
		t.Errorf("folded value = %v, want 30", c.Val)
	}
	// Leaves never fold: a bare literal stays a Literal.
	if _, ok := foldStr(t, "42").(*ast.Literal); !ok {
		t.Error("a bare literal should not be rewritten to a Const")
	}
}
