package expr

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/value"
)

// Env is a record by variable name, as the tests state it.
type Env = map[string]value.Value

// rowOf resolves e's names and env's into ev's name table and lays env
// out as a row over it.
func rowOf(ev *Evaluator, e ast.Expr, env Env) []value.Value {
	ev.Names = ast.Names{}
	for name := range env {
		ev.Names.Slot(name)
	}
	ev.Names.Expr(e)
	row := ev.Row()
	for name, v := range env {
		row[ev.Names[name]] = v
	}
	return row
}

// evalStr parses and evaluates an expression against an optional graph
// and environment.
func evalStr(t *testing.T, src string, g *graph.Graph, env Env, params map[string]value.Value) (value.Value, error) {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if g == nil {
		g = graph.New()
	}
	ev := &Evaluator{Graph: g, Params: params}
	return ev.Eval(e, rowOf(ev, e, env))
}

func mustEval(t *testing.T, src string, g *graph.Graph, env Env) value.Value {
	t.Helper()
	v, err := evalStr(t, src, g, env, nil)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestLiteralAndArithmetic(t *testing.T) {
	cases := map[string]value.Value{
		"1 + 2 * 3":   value.Int(7),
		"(1 + 2) * 3": value.Int(9),
		"7 / 2":       value.Int(3),
		"7.0 / 2":     value.Float(3.5),
		"7 % 3":       value.Int(1),
		"2 ^ 10":      value.Float(1024),
		"-5":          value.Int(-5),
		"1.5 + 1":     value.Float(2.5),
		"'a' + 'b'":   value.String("ab"),
		"[1] + [2]":   value.List{value.Int(1), value.Int(2)},
		"null + 1":    value.NullValue,
		"true":        value.Bool(true),
		"null":        value.NullValue,
		"'x'":         value.String("x"),
	}
	for src, want := range cases {
		got := mustEval(t, src, nil, nil)
		if !value.Equivalent(got, want) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	cases := map[string]value.Value{
		"1 = 1":                 value.Bool(true),
		"1 = 2":                 value.Bool(false),
		"1 <> 2":                value.Bool(true),
		"1 < 2":                 value.Bool(true),
		"2 <= 1":                value.Bool(false),
		"2 > 1":                 value.Bool(true),
		"1 >= 1":                value.Bool(true),
		"null = 1":              value.NullValue,
		"null = null":           value.NullValue,
		"1 = null OR true":      value.Bool(true),
		"null AND false":        value.Bool(false),
		"null AND true":         value.NullValue,
		"null OR false":         value.NullValue,
		"true XOR null":         value.NullValue,
		"NOT null":              value.NullValue,
		"NOT false":             value.Bool(true),
		"1 < 2 < 3":             value.Bool(true),
		"1 < 2 > 5":             value.Bool(false),
		"'ab' STARTS WITH 'a'":  value.Bool(true),
		"'ab' ENDS WITH 'b'":    value.Bool(true),
		"'abc' CONTAINS 'b'":    value.Bool(true),
		"'ab' STARTS WITH null": value.NullValue,
		"2 IN [1,2]":            value.Bool(true),
		"3 IN [1,2]":            value.Bool(false),
		"3 IN [1,null]":         value.NullValue,
		"null IN []":            value.Bool(false),
		"null IN [1]":           value.NullValue,
		"null IS NULL":          value.Bool(true),
		"1 IS NOT NULL":         value.Bool(true),
	}
	for src, want := range cases {
		got := mustEval(t, src, nil, nil)
		if !value.Equivalent(got, want) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand would error; short-circuiting must avoid it.
	if got := mustEval(t, "false AND 1/0 = 1", nil, nil); got != value.Bool(false) {
		t.Errorf("AND short circuit = %v", got)
	}
	if got := mustEval(t, "true OR 1/0 = 1", nil, nil); got != value.Bool(true) {
		t.Errorf("OR short circuit = %v", got)
	}
	if _, err := evalStr(t, "true AND 1/0 = 1", nil, nil, nil); err == nil {
		t.Error("non-short-circuit path should error")
	}
}

func TestIndexAndSlice(t *testing.T) {
	env := Env{"xs": value.List{value.Int(10), value.Int(20), value.Int(30)},
		"m": value.Map{"a": value.Int(1)}}
	cases := map[string]value.Value{
		"xs[0]":    value.Int(10),
		"xs[-1]":   value.Int(30),
		"xs[9]":    value.NullValue,
		"m['a']":   value.Int(1),
		"m['z']":   value.NullValue,
		"xs[1..3]": value.List{value.Int(20), value.Int(30)},
		"xs[..2]":  value.List{value.Int(10), value.Int(20)},
		"xs[-2..]": value.List{value.Int(20), value.Int(30)},
		"xs[3..1]": value.List{},
		"null[0]":  value.NullValue,
	}
	for src, want := range cases {
		got := mustEval(t, src, nil, env)
		if !value.Equivalent(got, want) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
	if _, err := evalStr(t, "xs['a']", nil, env, nil); err == nil {
		t.Error("string index into list should error")
	}
	if _, err := evalStr(t, "1[0]", nil, env, nil); err == nil {
		t.Error("indexing an integer should error")
	}
}

func TestPropertyAccess(t *testing.T) {
	g := graph.New()
	n := g.CreateNode([]string{"Product"}, value.Map{"name": value.String("laptop")})
	other := g.CreateNode(nil, nil)
	r, _ := g.CreateRel(n.ID, other.ID, "T", value.Map{"w": value.Int(3)})
	env := Env{
		"p":   value.Node{ID: int64(n.ID)},
		"r":   value.Rel{ID: int64(r.ID)},
		"m":   value.Map{"k": value.Int(9)},
		"nul": value.NullValue,
	}
	cases := map[string]value.Value{
		"p.name":    value.String("laptop"),
		"p.missing": value.NullValue,
		"r.w":       value.Int(3),
		"m.k":       value.Int(9),
		"nul.x":     value.NullValue,
	}
	for src, want := range cases {
		got := mustEval(t, src, g, env)
		if !value.Equivalent(got, want) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
	if _, err := evalStr(t, "(1).x", g, env, nil); err == nil {
		t.Error("property access on integer should error")
	}
	// Deleted entity: lenient null (legacy Section 4.2 behaviour).
	g.DeleteRel(r.ID)
	g.DeleteNode(other.ID)
	if got := mustEval(t, "r.w", g, env); !value.IsNull(got) {
		t.Errorf("deleted rel prop = %v, want null", got)
	}
}

func TestCase(t *testing.T) {
	env := Env{"x": value.Int(2)}
	cases := map[string]value.Value{
		"CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' ELSE 'c' END": value.String("b"),
		"CASE x WHEN 9 THEN 'a' END":                          value.NullValue,
		"CASE WHEN x > 1 THEN 'big' ELSE 'small' END":         value.String("big"),
		"CASE WHEN x > 9 THEN 'big' END":                      value.NullValue,
	}
	for src, want := range cases {
		got := mustEval(t, src, nil, env)
		if !value.Equivalent(got, want) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestListComprehension(t *testing.T) {
	got := mustEval(t, "[x IN [1,2,3,4] WHERE x % 2 = 0 | x * 10]", nil, nil)
	want := value.List{value.Int(20), value.Int(40)}
	if !value.Equivalent(got, want) {
		t.Errorf("comprehension = %v", got)
	}
	got = mustEval(t, "[x IN [1,2]]", nil, nil)
	if !value.Equivalent(got, value.List{value.Int(1), value.Int(2)}) {
		t.Errorf("identity comprehension = %v", got)
	}
	if got := mustEval(t, "[x IN null | x]", nil, nil); !value.IsNull(got) {
		t.Errorf("comprehension over null = %v", got)
	}
}

func TestQuantifiers(t *testing.T) {
	cases := map[string]value.Value{
		"all(x IN [1,2] WHERE x > 0)":    value.Bool(true),
		"all(x IN [1,2] WHERE x > 1)":    value.Bool(false),
		"all(x IN [] WHERE x > 1)":       value.Bool(true),
		"all(x IN [1,null] WHERE x > 0)": value.NullValue,
		"any(x IN [1,2] WHERE x > 1)":    value.Bool(true),
		"any(x IN [1,2] WHERE x > 9)":    value.Bool(false),
		"any(x IN [null] WHERE x > 0)":   value.NullValue,
		"none(x IN [1,2] WHERE x > 9)":   value.Bool(true),
		"none(x IN [1,2] WHERE x > 1)":   value.Bool(false),
		"single(x IN [1,2] WHERE x = 1)": value.Bool(true),
		"single(x IN [1,1] WHERE x = 1)": value.Bool(false),
	}
	for src, want := range cases {
		got := mustEval(t, src, nil, nil)
		if !value.Equivalent(got, want) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestReduce(t *testing.T) {
	got := mustEval(t, "reduce(acc = 0, x IN [1,2,3] | acc + x)", nil, nil)
	if got != value.Int(6) {
		t.Errorf("reduce = %v", got)
	}
	got = mustEval(t, "reduce(s = '', w IN ['a','b'] | s + w)", nil, nil)
	if got != value.String("ab") {
		t.Errorf("reduce strings = %v", got)
	}
}

func TestParameters(t *testing.T) {
	params := map[string]value.Value{"lim": value.Int(5)}
	v, err := evalStr(t, "$lim + 1", nil, nil, params)
	if err != nil || v != value.Int(6) {
		t.Errorf("param eval = %v, %v", v, err)
	}
	if _, err := evalStr(t, "$missing", nil, nil, params); err == nil {
		t.Error("missing parameter should error")
	}
}

func TestUnboundVariable(t *testing.T) {
	_, err := evalStr(t, "nope", nil, Env{}, nil)
	if err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Errorf("unbound variable error = %v", err)
	}
}

func TestEvalBoolTypeError(t *testing.T) {
	ev := &Evaluator{Graph: graph.New()}
	e, _ := parser.ParseExpr("1 + 1")
	if _, err := ev.EvalBool(e, nil); err == nil {
		t.Error("integer predicate should error")
	}
}

// TestBinderScopingOverSlots pins how binders share slots with the row:
// a binder variable and a row column of the same name are one slot, so
// the binder writes it for its body and must restore it afterwards —
// on success and on error — for the rest of the expression and the
// row's owner.
func TestBinderScopingOverSlots(t *testing.T) {
	x := Env{"x": value.Int(5)}
	ints := func(vs ...int64) value.List {
		out := value.List{}
		for _, v := range vs {
			out = append(out, value.Int(v))
		}
		return out
	}
	for _, c := range []struct {
		src  string
		env  Env
		want value.Value
	}{
		// A comprehension shadows the column x; the item reads x after it.
		{"[x IN [10, 20] | x] + [x]", x, ints(10, 20, 5)},
		{"any(x IN [1] WHERE x = 1) AND x = 5", x, value.Bool(true)},
		{"reduce(a = 0, x IN [1, 2] | a + x) + x", x, value.Int(8)},
		// Nested comprehensions reusing one name: the inner binding is
		// innermost and the outer one is back after it.
		{"[x IN [1, 2] | [x IN [10, 20] | x] + [x]]", nil, value.List{ints(10, 20, 1), ints(10, 20, 2)}},
		{"[x IN [1, 2] | [y IN [0] | x] + [x IN [7] | x]]", x, value.List{ints(1, 7), ints(2, 7)}},
		// The accumulator and the element share a name, and so a slot:
		// the element binding is innermost.
		{"reduce(x = 0, x IN [1, 2, 3] | x)", nil, value.Int(3)},
		{"reduce(x = 10, x IN [1, 2] | x + 1)", x, value.Int(3)},
	} {
		if got := mustEval(t, c.src, nil, c.env); !value.Equivalent(got, c.want) {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
	// A binder variable used after its binder is unbound there.
	for _, src := range []string{"[x IN [1] | x] + [x]", "reduce(a = 0, x IN [1] | a) + x", "all(x IN [1] WHERE x > 0) AND x > 0"} {
		if _, err := evalStr(t, src, nil, nil, nil); err == nil || !strings.Contains(err.Error(), "`x` not defined") {
			t.Errorf("%s: error %v, want x not defined", src, err)
		}
	}
	// A binder that errors restores its slot before the error returns.
	ev := &Evaluator{Graph: graph.New()}
	e, err := parser.ParseExpr("[x IN [1, 0] | 1 / x]")
	if err != nil {
		t.Fatal(err)
	}
	row := rowOf(ev, e, x)
	if _, err := ev.Eval(e, row); err == nil {
		t.Fatal("1 / 0 should error")
	}
	if got := row[ev.Names["x"]]; got != value.Int(5) {
		t.Errorf("x after a failed comprehension = %v, want 5", got)
	}
}

// A literal's runtime value is converted once, at parse: evaluating an
// int too large for the runtime's preallocated small values, a float
// or a string allocates nothing, and neither does reading a bound
// literal's value from the evaluator's bindings.
func TestLiteralEvalAllocatesNothing(t *testing.T) {
	ev := &Evaluator{Graph: graph.New()}
	for _, src := range []string{"4711", "2.5", "'ann'"} {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { ev.Eval(e, nil) }); n != 0 {
			t.Errorf("evaluating %s allocates %v times", src, n)
		}
	}
	bound := &Evaluator{Graph: graph.New(), Binds: []value.Value{value.Int(1 << 20)}}
	lit := &ast.Literal{Val: value.Int(4711)}
	lit.Bind = 1
	if v, _ := bound.Eval(lit, nil); v != value.Int(1<<20) {
		t.Errorf("bound literal evaluates to %v, want its binding", v)
	}
	if v, _ := ev.Eval(lit, nil); v != value.Int(4711) {
		t.Errorf("bound literal without bindings evaluates to %v, want its own value", v)
	}
	if n := testing.AllocsPerRun(100, func() { bound.Eval(lit, nil) }); n != 0 {
		t.Errorf("evaluating a bound literal allocates %v times", n)
	}
}
