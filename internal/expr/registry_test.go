package expr

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/value"
)

func TestLookupIsCaseInsensitive(t *testing.T) {
	for _, name := range []string{"toUpper", "TOUPPER", "tOuPpEr", "toupper"} {
		if LookupFunc(name) == nil {
			t.Errorf("LookupFunc(%q) = nil", name)
		}
	}
	if LookupFunc("noSuchFunction") != nil {
		t.Error("LookupFunc of an unknown name should be nil")
	}
	// The case-folded spellings evaluate identically.
	for _, src := range []string{"toUpper('ab')", "TOUPPER('ab')", "tOuPpEr('ab')"} {
		if got := mustEval(t, src, nil, nil); !value.Equivalent(got, value.String("AB")) {
			t.Errorf("%s = %v, want 'AB'", src, got)
		}
	}
}

func TestUniformArityErrors(t *testing.T) {
	cases := map[string]string{
		"abs()":                       "abs() expects 1 argument, got 0",
		"abs(1, 2)":                   "abs() expects 1 argument, got 2",
		"substring('a')":              "substring() expects 2..3 arguments, got 1",
		"substring('a',1,2,3)":        "substring() expects 2..3 arguments, got 4",
		"exists(1, 2)":                "exists() expects 1 argument, got 2",
		"coalesce()":                  "coalesce() expects at least 1 argument, got 0",
		"range(1)":                    "range() expects 2..3 arguments, got 1",
		"round()":                     "round() expects 1..2 arguments, got 0",
		"datetime(1, 2)":              "datetime() expects 0..1 arguments, got 2",
		"pi(1)":                       "pi() expects 0 arguments, got 1",
		"split('a')":                  "split() expects 2 arguments, got 1",
		"replace('a', 'b')":           "replace() expects 3 arguments, got 2",
		"left('a')":                   "left() expects 2 arguments, got 1",
		"reduce(s = 0, x IN [1] | s)": "", // not a registry call; sanity: no arity error
	}
	for src, want := range cases {
		_, err := evalStr(t, src, nil, nil, nil)
		if want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", src, err)
			}
			continue
		}
		if err == nil || err.Error() != want {
			t.Errorf("%s: error = %v, want %q", src, err, want)
		}
	}
}

// TestArityCheckedBeforeArguments pins the order: a wrong-arity call
// reports the arity error even when evaluating its arguments would
// itself error.
func TestArityCheckedBeforeArguments(t *testing.T) {
	_, err := evalStr(t, "abs(1/0, 2)", nil, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "abs() expects 1 argument, got 2") {
		t.Errorf("error = %v, want the arity error", err)
	}
}

func TestNewStringFunctions(t *testing.T) {
	cases := map[string]value.Value{
		"split('a,b,c', ',')":      value.List{value.String("a"), value.String("b"), value.String("c")},
		"split('abc', '')":         value.List{value.String("a"), value.String("b"), value.String("c")},
		"replace('aaa', 'a', 'b')": value.String("bbb"),
		"replace('abc', 'x', 'y')": value.String("abc"),
		"left('cypher', 2)":        value.String("cy"),
		"left('ab', 10)":           value.String("ab"),
		"right('cypher', 3)":       value.String("her"),
		"right('ab', 10)":          value.String("ab"),
		"lTrim('  a ')":            value.String("a "),
		"rTrim(' a  ')":            value.String(" a"),
		"reverse('abc')":           value.String("cba"),
		"reverse([1, 2, 3])":       value.List{value.Int(3), value.Int(2), value.Int(1)},
	}
	for src, want := range cases {
		got := mustEval(t, src, nil, nil)
		if !value.Equivalent(got, want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	if _, err := evalStr(t, "left('a', -1)", nil, nil, nil); err == nil {
		t.Error("left with negative n should error")
	}
}

func TestNewNumericFunctions(t *testing.T) {
	cases := map[string]value.Value{
		"sign(-3)":         value.Int(-1),
		"sign(0)":          value.Int(0),
		"sign(2.5)":        value.Int(1),
		"round(2.5)":       value.Float(3),
		"round(-2.5)":      value.Float(-3),
		"round(2.345, 2)":  value.Float(2.35),
		"round(1234.5, 0)": value.Float(1235),
		"e()":              value.Float(math.E),
		"pi()":             value.Float(math.Pi),
	}
	for src, want := range cases {
		got := mustEval(t, src, nil, nil)
		if !value.Equivalent(got, want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	if _, err := evalStr(t, "round(1.5, 99)", nil, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "precision") {
		t.Errorf("round with out-of-range precision: error = %v", err)
	}
}

func TestNewListFunctions(t *testing.T) {
	cases := map[string]value.Value{
		"tail([1, 2, 3])": value.List{value.Int(2), value.Int(3)},
		"tail([])":        value.List{},
		"last([1, 2])":    value.Int(2),
		"last([])":        value.NullValue,
	}
	for src, want := range cases {
		got := mustEval(t, src, nil, nil)
		if !value.Equivalent(got, want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestTemporalFunctions(t *testing.T) {
	before := time.Now().UnixMilli()
	got := mustEval(t, "timestamp()", nil, nil)
	after := time.Now().UnixMilli()
	ts, ok := got.(value.Int)
	if !ok || int64(ts) < before || int64(ts) > after {
		t.Errorf("timestamp() = %v, want an Int in [%d, %d]", got, before, after)
	}

	dt := mustEval(t, "datetime(0)", nil, nil)
	m, ok := dt.(value.Map)
	if !ok {
		t.Fatalf("datetime(0) = %T, want a map", dt)
	}
	want := map[string]int64{
		"year": 1970, "month": 1, "day": 1,
		"hour": 0, "minute": 0, "second": 0, "millisecond": 0, "epochMillis": 0,
	}
	for k, v := range want {
		if !value.Equivalent(m[k], value.Int(v)) {
			t.Errorf("datetime(0).%s = %v, want %d", k, m[k], v)
		}
	}
	// 2019-08-26: the paper's publication month.
	m2 := mustEval(t, "datetime(1566777600000)", nil, nil).(value.Map)
	if !value.Equivalent(m2["year"], value.Int(2019)) || !value.Equivalent(m2["month"], value.Int(8)) {
		t.Errorf("datetime(1566777600000) = %v, want 2019-08", m2)
	}
}

func TestRandBoundsAndMetadata(t *testing.T) {
	for i := 0; i < 100; i++ {
		v := mustEval(t, "rand()", nil, nil)
		f, ok := v.(value.Float)
		if !ok || f < 0 || f >= 1 {
			t.Fatalf("rand() = %v, want a Float in [0, 1)", v)
		}
	}
	for _, name := range []string{"rand", "timestamp"} {
		d := LookupFunc(name)
		if d.Deterministic || d.Pure {
			t.Errorf("%s must be neither Deterministic nor Pure", name)
		}
		if !d.Total {
			t.Errorf("%s takes no arguments and cannot error; it should be Total", name)
		}
	}
}

// TestPlannerFacingMetadata pins the metadata the planner depends on:
// get these wrong and pushdown either hides errors or skips safe
// predicates.
func TestPlannerFacingMetadata(t *testing.T) {
	if d := LookupFunc("exists"); !d.Pure || !d.Total || !d.Deterministic || !d.BoolValued {
		t.Error("exists must be Pure+Total+Deterministic+BoolValued")
	}
	// Graph readers depend on the evaluator's graph, not only their
	// arguments: never Pure, or folding would bake in one snapshot.
	for _, name := range []string{"keys", "properties", "labels", "type", "startNode", "endNode"} {
		if d := LookupFunc(name); d.Pure {
			t.Errorf("%s reads the graph and must not be Pure", name)
		}
	}
	// Fallible functions must not claim totality.
	for _, name := range []string{"abs", "substring", "round", "left", "split"} {
		if d := LookupFunc(name); d.Total {
			t.Errorf("%s can raise type errors and must not be Total", name)
		}
	}
	if d := LookupFunc("coalesce"); !d.Total || d.MaxArgs != -1 {
		t.Error("coalesce must be Total and variadic")
	}
}

// TestNullPropagation is the satellite's null table: every scalar
// function except exists and coalesce maps a null argument to null.
func TestNullPropagation(t *testing.T) {
	cases := []string{
		"abs(null)", "sign(null)", "ceil(null)", "floor(null)", "round(null)",
		"round(null, 2)", "round(1.5, null)", "sqrt(null)", "exp(null)",
		"log(null)", "sin(null)", "toInteger(null)", "toFloat(null)",
		"toBoolean(null)", "toString(null)", "size(null)", "length(null)",
		"head(null)", "last(null)", "tail(null)", "reverse(null)",
		"range(null, 5)", "range(1, null)", "toUpper(null)", "toLower(null)",
		"trim(null)", "lTrim(null)", "rTrim(null)", "replace(null, 'a', 'b')",
		"replace('a', null, 'b')", "replace('a', 'b', null)", "split(null, ',')",
		"split('a', null)", "left(null, 1)", "left('a', null)", "right(null, 1)",
		"substring(null, 0)", "keys(null)", "properties(null)", "labels(null)",
		"type(null)", "id(null)", "startNode(null)", "endNode(null)",
		"nodes(null)", "relationships(null)", "datetime(null)",
	}
	for _, src := range cases {
		got, err := evalStr(t, src, nil, nil, nil)
		if err != nil {
			t.Errorf("%s: unexpected error %v", src, err)
			continue
		}
		if !value.IsNull(got) {
			t.Errorf("%s = %v, want null", src, got)
		}
	}
	// The two deliberate exceptions.
	if got := mustEval(t, "exists(null)", nil, nil); !value.Equivalent(got, value.Bool(false)) {
		t.Errorf("exists(null) = %v, want false", got)
	}
	if got := mustEval(t, "coalesce(null, 7)", nil, nil); !value.Equivalent(got, value.Int(7)) {
		t.Errorf("coalesce(null, 7) = %v, want 7", got)
	}
}
