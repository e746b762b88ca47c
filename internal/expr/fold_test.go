package expr

import (
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

func foldStr(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, names := parseExpr(t, src)
	return Fold(e, &Evaluator{Graph: graph.New(), Names: names})
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
	}
	for src, want := range cases {
		got := foldStr(t, src).String()
		if got != want {
			t.Errorf("Fold(%q) prints %q, want %q", src, got, want)
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
