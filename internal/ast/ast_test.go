package ast

import (
	"strings"
	"testing"

	"repro/internal/value"
)

func TestMergeFormString(t *testing.T) {
	if MergeLegacy.String() != "MERGE" || MergeAll.String() != "MERGE ALL" || MergeSame.String() != "MERGE SAME" {
		t.Error("MergeForm strings")
	}
}

func TestQuantKindString(t *testing.T) {
	want := map[QuantKind]string{QuantAll: "all", QuantAny: "any", QuantNone: "none", QuantSingle: "single"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("QuantKind(%d) = %q, want %q", k, k.String(), s)
		}
	}
}

func TestReadingUpdatingClassification(t *testing.T) {
	reading := []Clause{&MatchClause{}, &UnwindClause{}, &LoadCSVClause{}}
	for _, c := range reading {
		if !c.Reading() || c.Updating() {
			t.Errorf("%T should be reading-only", c)
		}
	}
	updating := []Clause{&CreateClause{}, &MergeClause{}, &SetClause{}, &RemoveClause{}, &DeleteClause{}, &ForeachClause{}}
	for _, c := range updating {
		if c.Reading() || !c.Updating() {
			t.Errorf("%T should be updating-only", c)
		}
	}
	neither := []Clause{&WithClause{}, &ReturnClause{}}
	for _, c := range neither {
		if c.Reading() || c.Updating() {
			t.Errorf("%T should be neither", c)
		}
	}
}

func TestWalkPrune(t *testing.T) {
	// a + count(b): pruning at the FuncCall must not descend into b.
	e := &BinaryOp{
		Op:   OpAdd,
		Left: &Variable{Name: "a"},
		Right: &FuncCall{
			Name: "count",
			Args: []Expr{&Variable{Name: "b"}},
		},
	}
	var visited []string
	Walk(e, func(x Expr) bool {
		if v, ok := x.(*Variable); ok {
			visited = append(visited, v.Name)
		}
		_, isCall := x.(*FuncCall)
		return !isCall
	})
	if len(visited) != 1 || visited[0] != "a" {
		t.Errorf("visited = %v, want [a]", visited)
	}
}

func TestWalkAllNodeKinds(t *testing.T) {
	// A deliberately deep expression touching every Walk branch.
	e := &CaseExpr{
		Test: &Index{Expr: &Variable{Name: "xs"}, Index: &Literal{Val: value.Int(0)}},
		Whens: []Expr{
			&Slice{Expr: &Variable{Name: "xs"}, From: &Literal{Val: value.Int(0)}, To: nil},
		},
		Thens: []Expr{
			&ListComprehension{
				Var:   "x",
				List:  &ListLit{Elems: []Expr{&Literal{Val: value.Int(1)}}},
				Where: &IsNull{Expr: &Variable{Name: "x"}},
				Proj:  &UnaryOp{Op: OpNeg, Expr: &Variable{Name: "x"}},
			},
		},
		Else: &Reduce{
			Acc:  "acc",
			Init: &Literal{Val: value.Int(0)},
			Var:  "v",
			List: &MapLit{Keys: []string{"k"}, Vals: []Expr{&Parameter{Name: "p"}}},
			Expr: &Quantifier{
				Kind:  QuantAny,
				Var:   "q",
				List:  &Variable{Name: "lst"},
				Where: &PropAccess{Expr: &Variable{Name: "q"}, Key: "ok"},
			},
		},
	}
	count := 0
	Walk(e, func(Expr) bool { count++; return true })
	if count < 15 {
		t.Errorf("visited %d nodes, expected a deep traversal", count)
	}
}

func TestVariablesExcludesBound(t *testing.T) {
	// reduce(acc = init, v IN lst | acc + v + free)
	e := &Reduce{
		Acc:  "acc",
		Init: &Variable{Name: "init"},
		Var:  "v",
		List: &Variable{Name: "lst"},
		Expr: &BinaryOp{
			Op:    OpAdd,
			Left:  &BinaryOp{Op: OpAdd, Left: &Variable{Name: "acc"}, Right: &Variable{Name: "v"}},
			Right: &Variable{Name: "free"},
		},
	}
	vars := Variables(e)
	want := []string{"init", "lst", "free"}
	if len(vars) != len(want) {
		t.Fatalf("Variables = %v, want %v", vars, want)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("Variables = %v, want %v", vars, want)
		}
	}
	// Quantifier binder.
	q := &Quantifier{Kind: QuantAll, Var: "x", List: &Variable{Name: "xs"},
		Where: &BinaryOp{Op: OpLt, Left: &Variable{Name: "x"}, Right: &Variable{Name: "lim"}}}
	vars = Variables(q)
	if len(vars) != 2 || vars[0] != "xs" || vars[1] != "lim" {
		t.Errorf("quantifier Variables = %v", vars)
	}
}

func TestContainsAggregateDirect(t *testing.T) {
	agg := &FuncCall{Name: "collect", Args: []Expr{&Variable{Name: "x"}}}
	if !ContainsAggregate(agg) {
		t.Error("collect is an aggregate")
	}
	if ContainsAggregate(&FuncCall{Name: "size", Args: []Expr{agg}}) != true {
		t.Error("nested aggregate must be detected")
	}
	if ContainsAggregate(&Variable{Name: "x"}) {
		t.Error("variable is not an aggregate")
	}
	if ContainsAggregate(nil) {
		t.Error("nil expression")
	}
}

func TestPrinterEdgeCases(t *testing.T) {
	cases := []struct {
		node interface{ String() string }
		want string
	}{
		{&NodePattern{}, "()"},
		{&NodePattern{Var: "n", Labels: []string{"A", "B"}}, "(n:A:B)"},
		{&RelPattern{Direction: DirBoth}, "--"},
		{&RelPattern{Direction: DirOut, Types: []string{"T"}}, "-[:T]->"},
		{&RelPattern{Direction: DirIn, Var: "r"}, "<-[r]-"},
		{&RelPattern{Direction: DirOut, VarLength: true, MinHops: -1, MaxHops: -1}, "-[*]->"},
		{&RelPattern{Direction: DirOut, VarLength: true, MinHops: 2, MaxHops: 2}, "-[*2]->"},
		{&RelPattern{Direction: DirOut, VarLength: true, MinHops: 2, MaxHops: 4}, "-[*2..4]->"},
		{&RelPattern{Direction: DirOut, VarLength: true, MinHops: -1, MaxHops: 4}, "-[*..4]->"},
		{&Literal{Val: value.NullValue}, "null"},
		{&Literal{Val: value.String("a'b")}, `'a\'b'`},
		{&Literal{Val: value.Bool(true)}, "true"},
		{&Literal{Val: value.Int(3)}, "3"},
		{&Literal{Val: value.Float(2.5)}, "2.5"},
		{&IsNull{Expr: &Variable{Name: "x"}, Not: true}, "x IS NOT NULL"},
		{&UnaryOp{Op: OpPos, Expr: &Literal{Val: value.Int(1)}}, "+(1)"},
		{&FuncCall{Name: "count", Star: true}, "count(*)"},
		{&FuncCall{Name: "count", Distinct: true, Args: []Expr{&Variable{Name: "x"}}}, "count(DISTINCT x)"},
		{&Slice{Expr: &Variable{Name: "xs"}}, "xs[..]"},
	}
	for _, c := range cases {
		if got := c.node.String(); got != c.want {
			t.Errorf("%T.String() = %q, want %q", c.node, got, c.want)
		}
	}
}

func TestClauseStrings(t *testing.T) {
	del := &DeleteClause{Detach: true, Exprs: []Expr{&Variable{Name: "n"}}}
	if del.String() != "DETACH DELETE n" {
		t.Errorf("delete = %q", del.String())
	}
	lc := &LoadCSVClause{WithHeaders: true, URL: &Literal{Val: value.String("f.csv")}, Var: "row", FieldTerm: ";"}
	if !strings.Contains(lc.String(), "WITH HEADERS") || !strings.Contains(lc.String(), "FIELDTERMINATOR") {
		t.Errorf("load csv = %q", lc.String())
	}
	m := &MergeClause{
		Form:    MergeLegacy,
		Pattern: []*PatternPart{{Nodes: []*NodePattern{{Var: "n"}}}},
		OnCreate: []SetItem{
			&SetProp{Target: &Variable{Name: "n"}, Key: "x", Value: &Literal{Val: value.Int(1)}},
		},
		OnMatch: []SetItem{
			&SetLabels{Var: "n", Labels: []string{"L"}},
		},
	}
	s := m.String()
	if !strings.Contains(s, "ON CREATE SET n.x = 1") || !strings.Contains(s, "ON MATCH SET n:L") {
		t.Errorf("merge = %q", s)
	}
}
