package expr

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/value"
)

func TestEvalPropMap(t *testing.T) {
	g := graph.New()
	ev := &Evaluator{Graph: g}

	// nil expression -> empty map.
	m, err := ev.EvalPropMap(nil, nil)
	if err != nil || len(m) != 0 {
		t.Errorf("nil prop map: %v, %v", m, err)
	}

	e, _ := parser.ParseExpr(`{a: 1, b: 'x'}`)
	m, err = ev.EvalPropMap(e, nil)
	if err != nil || m["a"] != value.Int(1) {
		t.Errorf("prop map: %v, %v", m, err)
	}

	// Non-map expression errors.
	e2, _ := parser.ParseExpr(`42`)
	if _, err := ev.EvalPropMap(e2, nil); err == nil {
		t.Error("non-map should error")
	}

	// Parameter-backed map.
	ev.Params = map[string]value.Value{"p": value.Map{"k": value.Int(9)}}
	e3, _ := parser.ParseExpr(`$p`)
	m, err = ev.EvalPropMap(e3, nil)
	if err != nil || m["k"] != value.Int(9) {
		t.Errorf("param prop map: %v, %v", m, err)
	}
}

func TestUnaryEdgeCases(t *testing.T) {
	if got := mustEval(t, "+5", nil, nil); got != value.Int(5) {
		t.Errorf("+5 = %v", got)
	}
	if got := mustEval(t, "+(1.5)", nil, nil); got != value.Float(1.5) {
		t.Errorf("+1.5 = %v", got)
	}
	env := Env{"nul": value.NullValue}
	if got := mustEval(t, "+nul", nil, env); !value.IsNull(got) {
		t.Errorf("+null = %v", got)
	}
	if _, err := evalStr(t, "+'a'", nil, nil, nil); err == nil {
		t.Error("unary + on string should error")
	}
	if _, err := evalStr(t, "-'a'", nil, nil, nil); err == nil {
		t.Error("unary - on string should error")
	}
	if got := mustEval(t, "--3", nil, nil); got != value.Int(3) {
		t.Errorf("--3 = %v", got)
	}
}

func TestSliceEdgeCases(t *testing.T) {
	env := Env{"xs": value.List{value.Int(1), value.Int(2), value.Int(3)}, "nul": value.NullValue}
	if got := mustEval(t, "xs[nul..2]", nil, env); !value.IsNull(got) {
		t.Errorf("null bound = %v", got)
	}
	if got := mustEval(t, "xs[0..nul]", nil, env); !value.IsNull(got) {
		t.Errorf("null to-bound = %v", got)
	}
	if _, err := evalStr(t, "xs['a'..2]", nil, env, nil); err == nil {
		t.Error("string bound should error")
	}
	if _, err := evalStr(t, "xs[1..'b']", nil, env, nil); err == nil {
		t.Error("string to-bound should error")
	}
	if _, err := evalStr(t, "(1)[0..1]", nil, env, nil); err == nil {
		t.Error("slicing an int should error")
	}
	// Negative bounds clamp.
	if got := mustEval(t, "xs[-99..99]", nil, env); len(got.(value.List)) != 3 {
		t.Errorf("clamped slice = %v", got)
	}
}

func TestReduceEdgeCases(t *testing.T) {
	env := Env{"nul": value.NullValue}
	if got := mustEval(t, "reduce(a = 1, x IN nul | a + x)", nil, env); !value.IsNull(got) {
		t.Errorf("reduce over null = %v", got)
	}
	if _, err := evalStr(t, "reduce(a = 1, x IN 42 | a + x)", nil, env, nil); err == nil {
		t.Error("reduce over int should error")
	}
	if _, err := evalStr(t, "reduce(a = 1, x IN [1] | a + 'x')", nil, env, nil); err == nil {
		t.Error("error inside reduce body should surface")
	}
}

func TestQuantifierAndComprehensionErrors(t *testing.T) {
	if _, err := evalStr(t, "all(x IN 42 WHERE x > 0)", nil, nil, nil); err == nil {
		t.Error("quantifier over int should error")
	}
	if _, err := evalStr(t, "all(x IN [1] WHERE x + 1)", nil, nil, nil); err == nil {
		t.Error("non-boolean quantifier predicate should error")
	}
	if _, err := evalStr(t, "[x IN 42 | x]", nil, nil, nil); err == nil {
		t.Error("comprehension over int should error")
	}
	if _, err := evalStr(t, "[x IN [1] WHERE x + 1 | x]", nil, nil, nil); err == nil {
		t.Error("non-boolean comprehension filter should error")
	}
}

func TestEntityPropsBranches(t *testing.T) {
	g := graph.New()
	a := g.CreateNode(nil, value.Map{"x": value.Int(1)})
	b := g.CreateNode(nil, nil)
	r, _ := g.CreateRel(a.ID, b.ID, "T", value.Map{"w": value.Int(2)})
	env := Env{
		"n": value.Node{ID: int64(a.ID)},
		"r": value.Rel{ID: int64(r.ID)},
	}
	if got := mustEval(t, "properties(r)", g, env); !value.Equivalent(got, value.Map{"w": value.Int(2)}) {
		t.Errorf("properties(r) = %v", got)
	}
	if got := mustEval(t, "keys(r)", g, env); !value.Equivalent(got, value.List{value.String("w")}) {
		t.Errorf("keys(r) = %v", got)
	}
	if _, err := evalStr(t, "properties(1)", g, env, nil); err == nil {
		t.Error("properties of int should error")
	}
	// Deleted entities read as empty maps.
	g.DeleteRel(r.ID)
	if got := mustEval(t, "properties(r)", g, env); len(got.(value.Map)) != 0 {
		t.Errorf("properties of deleted rel = %v", got)
	}
	g.DeleteNode(b.ID)
	env["gone"] = value.Node{ID: int64(b.ID)}
	if got := mustEval(t, "properties(gone)", g, env); len(got.(value.Map)) != 0 {
		t.Errorf("properties of deleted node = %v", got)
	}
}

func TestExistsArity(t *testing.T) {
	if _, err := evalStr(t, "exists(1, 2)", nil, nil, nil); err == nil {
		t.Error("exists with two args should error")
	}
	env := Env{"m": value.Map{"k": value.Int(1)}}
	if got := mustEval(t, "exists(m.k)", nil, env); got != value.Bool(true) {
		t.Errorf("exists(map key) = %v", got)
	}
	if got := mustEval(t, "exists(m.z)", nil, env); got != value.Bool(false) {
		t.Errorf("exists(missing map key) = %v", got)
	}
}

func TestDeletedEntityFunctionResults(t *testing.T) {
	g := graph.New()
	a := g.CreateNode([]string{"A"}, nil)
	b := g.CreateNode(nil, nil)
	r, _ := g.CreateRel(a.ID, b.ID, "T", nil)
	env := Env{"n": value.Node{ID: int64(a.ID)}, "r": value.Rel{ID: int64(r.ID)}}
	g.DeleteRel(r.ID)
	g.DeleteNode(a.ID)
	// Graph functions on deleted entities return null rather than erroring
	// (the legacy dialect relies on this lenience).
	for _, src := range []string{"labels(n)", "type(r)", "startNode(r)", "endNode(r)"} {
		if got := mustEval(t, src, g, env); !value.IsNull(got) {
			t.Errorf("%s on deleted = %v, want null", src, got)
		}
	}
}
