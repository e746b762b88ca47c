package expr

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/value"
)

// FuncDef is the registry entry for one scalar function: its canonical
// name, arity bounds, semantic metadata and implementation. The
// metadata is what the planner consumes — see internal/match (pushdown
// totality) and Fold (constant folding when a statement is prepared) — so the flags must
// be conservative: understating Pure/Total/Deterministic only loses an
// optimization, overstating one changes query results.
type FuncDef struct {
	// Name is the canonical (display-cased) name; lookup is
	// case-insensitive per Cypher.
	Name string
	// MinArgs/MaxArgs bound the accepted argument count; MaxArgs < 0
	// means variadic (no upper bound).
	MinArgs, MaxArgs int
	// Pure: the result depends only on the argument values — no graph
	// reads, no clock, no randomness. Pure+Deterministic functions are
	// eligible for constant folding.
	Pure bool
	// Total: evaluation never returns an error, for arguments of any
	// kind (null-in/null-out is fine; a type error is not).
	Total bool
	// Deterministic: same arguments (and same graph, for impure
	// functions) always produce the same result. Nondeterministic
	// functions (rand, timestamp) must never be evaluated twice for one
	// row, which rules them out of predicate pushdown.
	Deterministic bool
	// BoolValued: the result is always a boolean or null, so the call
	// is safe in predicate position (EvalBool errors on other kinds).
	BoolValued bool
	// Sig is the display signature for :functions and the docs.
	Sig string
	// Doc is a one-line description.
	Doc string
	// Fn is the implementation; the dispatcher checks arity before
	// evaluating arguments, so Fn sees len(args) within bounds.
	Fn scalarFunc
}

// registry maps lower-cased names to definitions.
var registry = map[string]*FuncDef{}

func register(d FuncDef) {
	key := strings.ToLower(d.Name)
	if _, dup := registry[key]; dup {
		panic("duplicate function registration: " + d.Name)
	}
	if d.MaxArgs >= 0 && d.MaxArgs < d.MinArgs {
		panic("invalid arity bounds for " + d.Name)
	}
	def := d
	registry[key] = &def
}

// LookupFunc resolves a function name case-insensitively, returning nil
// when no scalar function is registered under it.
func LookupFunc(name string) *FuncDef {
	return registry[strings.ToLower(name)]
}

// CheckArity validates an argument count against the definition's
// bounds, returning the uniform registry error on mismatch.
func (d *FuncDef) CheckArity(n int) error {
	if n >= d.MinArgs && (d.MaxArgs < 0 || n <= d.MaxArgs) {
		return nil
	}
	return fmt.Errorf("%s() expects %s, got %d", d.Name, d.arityDesc(), n)
}

func (d *FuncDef) arityDesc() string {
	plural := func(n int) string {
		if n == 1 {
			return "1 argument"
		}
		return fmt.Sprintf("%d arguments", n)
	}
	switch {
	case d.MaxArgs < 0:
		return "at least " + plural(d.MinArgs)
	case d.MinArgs == d.MaxArgs:
		return plural(d.MinArgs)
	default:
		return fmt.Sprintf("%d..%d arguments", d.MinArgs, d.MaxArgs)
	}
}

// Defs returns all registered definitions sorted by name (used by the
// shell's :functions, the docs cross-check and the public API).
func Defs() []*FuncDef {
	out := make([]*FuncDef, 0, len(registry))
	for _, d := range registry {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.ToLower(out[i].Name) < strings.ToLower(out[j].Name)
	})
	return out
}

// Functions returns the sorted lower-cased names of all registered
// scalar functions (used by the REPL for diagnostics).
func Functions() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	registerNumeric()
	registerConversions()
	registerListFuncs()
	registerGraphFuncs()
	registerStringFuncs()
	registerTemporal()
}

func registerNumeric() {
	register(FuncDef{
		Name: "abs", MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
		Sig: "abs(x)", Doc: "Absolute value of a number; integers stay integral.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			switch x := args[0].(type) {
			case value.Int:
				if x < 0 {
					return -x, nil
				}
				return x, nil
			case value.Float:
				return value.Float(math.Abs(float64(x))), nil
			}
			return nil, fmt.Errorf("abs() expects a number, got %s", args[0].Kind())
		}),
	})
	register(FuncDef{
		Name: "sign", MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
		Sig: "sign(x)", Doc: "-1, 0 or 1 according to the sign of a number.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			x, err := numArg("sign", args[0])
			if err != nil {
				return nil, err
			}
			switch {
			case x > 0:
				return value.Int(1), nil
			case x < 0:
				return value.Int(-1), nil
			default:
				return value.Int(0), nil
			}
		}),
	})
	mathDefs := []struct {
		name, doc string
		f         func(float64) float64
	}{
		{"ceil", "Smallest integer-valued float >= x.", math.Ceil},
		{"floor", "Largest integer-valued float <= x.", math.Floor},
		{"sqrt", "Square root of x.", math.Sqrt},
		{"exp", "e raised to the power x.", math.Exp},
		{"log", "Natural logarithm of x.", math.Log},
		{"log10", "Base-10 logarithm of x.", math.Log10},
		{"sin", "Sine of x (radians).", math.Sin},
		{"cos", "Cosine of x (radians).", math.Cos},
		{"tan", "Tangent of x (radians).", math.Tan},
		{"asin", "Arcsine of x, in radians.", math.Asin},
		{"acos", "Arccosine of x, in radians.", math.Acos},
		{"atan", "Arctangent of x, in radians.", math.Atan},
	}
	for _, md := range mathDefs {
		md := md
		register(FuncDef{
			Name: md.name, MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
			Sig: md.name + "(x)", Doc: md.doc,
			Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
				x, err := numArg(md.name, args[0])
				if err != nil {
					return nil, err
				}
				return value.Float(md.f(x)), nil
			}),
		})
	}
	register(FuncDef{
		Name: "round", MinArgs: 1, MaxArgs: 2, Pure: true, Deterministic: true,
		Sig: "round(x [, n])", Doc: "x rounded to n decimal places (default 0), half away from zero.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			x, err := numArg("round", args[0])
			if err != nil {
				return nil, err
			}
			if len(args) == 1 {
				return value.Float(math.Round(x)), nil
			}
			if value.IsNull(args[1]) {
				return value.NullValue, nil
			}
			n, ok := value.AsInt(args[1])
			if !ok || n < 0 || n > 15 {
				return nil, fmt.Errorf("round() precision must be an integer in 0..15, got %s", args[1])
			}
			scale := math.Pow(10, float64(n))
			return value.Float(math.Round(x*scale) / scale), nil
		}),
	})
	register(FuncDef{
		Name: "pi", MinArgs: 0, MaxArgs: 0, Pure: true, Total: true, Deterministic: true,
		Sig: "pi()", Doc: "The constant pi.",
		Fn: func(ev *Evaluator, args []value.Value) (value.Value, error) {
			return value.Float(math.Pi), nil
		},
	})
	register(FuncDef{
		Name: "e", MinArgs: 0, MaxArgs: 0, Pure: true, Total: true, Deterministic: true,
		Sig: "e()", Doc: "The constant e, the base of natural logarithms.",
		Fn: func(ev *Evaluator, args []value.Value) (value.Value, error) {
			return value.Float(math.E), nil
		},
	})
	register(FuncDef{
		Name: "rand", MinArgs: 0, MaxArgs: 0, Total: true,
		Sig: "rand()", Doc: "A uniform random float in [0, 1); nondeterministic.",
		Fn: func(ev *Evaluator, args []value.Value) (value.Value, error) {
			return value.Float(rand.Float64()), nil
		},
	})
}

func registerConversions() {
	register(FuncDef{
		Name: "toInteger", MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
		Sig: "toInteger(x)", Doc: "Convert a number or numeric string to an integer; null when unparseable.",
		Fn: toIntegerFunc,
	})
	register(FuncDef{
		Name: "toInt", MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
		Sig: "toInt(x)", Doc: "Alias of toInteger().",
		Fn: toIntegerFunc,
	})
	register(FuncDef{
		Name: "toFloat", MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
		Sig: "toFloat(x)", Doc: "Convert a number or numeric string to a float; null when unparseable.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			switch x := args[0].(type) {
			case value.Int:
				return value.Float(float64(x)), nil
			case value.Float:
				return x, nil
			case value.String:
				f, err := parseFloatValue(string(x))
				if err != nil {
					return value.NullValue, nil
				}
				return value.Float(f), nil
			}
			return nil, fmt.Errorf("toFloat() expects a number or string")
		}),
	})
	register(FuncDef{
		Name: "toBoolean", MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
		Sig: "toBoolean(x)", Doc: "Convert a boolean or 'true'/'false' string to a boolean; null otherwise.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			switch x := args[0].(type) {
			case value.Bool:
				return x, nil
			case value.String:
				switch strings.ToLower(strings.TrimSpace(string(x))) {
				case "true":
					return value.Bool(true), nil
				case "false":
					return value.Bool(false), nil
				}
				return value.NullValue, nil
			}
			return nil, fmt.Errorf("toBoolean() expects a boolean or string")
		}),
	})
	register(FuncDef{
		Name: "toString", MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
		Sig: "toString(x)", Doc: "Render an integer, float, boolean or string as a string.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			switch x := args[0].(type) {
			case value.String:
				return x, nil
			case value.Int, value.Float, value.Bool:
				return value.String(strings.Trim(x.String(), "'")), nil
			}
			return nil, fmt.Errorf("toString() expects a scalar, got %s", args[0].Kind())
		}),
	})
}

func registerListFuncs() {
	register(FuncDef{
		Name: "size", MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
		Sig: "size(x)", Doc: "Number of elements of a list or map, or characters of a string.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			switch x := args[0].(type) {
			case value.List:
				return value.Int(int64(len(x))), nil
			case value.String:
				return value.Int(int64(len([]rune(string(x))))), nil
			case value.Map:
				return value.Int(int64(len(x))), nil
			}
			return nil, fmt.Errorf("size() expects a list, string or map, got %s", args[0].Kind())
		}),
	})
	register(FuncDef{
		Name: "length", MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
		Sig: "length(x)", Doc: "Length of a path (relationship count), list or string.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			switch x := args[0].(type) {
			case value.Path:
				return value.Int(int64(x.Len())), nil
			case value.List:
				return value.Int(int64(len(x))), nil
			case value.String:
				return value.Int(int64(len([]rune(string(x))))), nil
			}
			return nil, fmt.Errorf("length() expects a path, list or string, got %s", args[0].Kind())
		}),
	})
	register(FuncDef{
		Name: "head", MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
		Sig: "head(list)", Doc: "First element of a list; null when empty.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			lst, ok := value.AsList(args[0])
			if !ok {
				return nil, fmt.Errorf("head() expects a list")
			}
			if len(lst) == 0 {
				return value.NullValue, nil
			}
			return lst[0], nil
		}),
	})
	register(FuncDef{
		Name: "last", MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
		Sig: "last(list)", Doc: "Last element of a list; null when empty.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			lst, ok := value.AsList(args[0])
			if !ok {
				return nil, fmt.Errorf("last() expects a list")
			}
			if len(lst) == 0 {
				return value.NullValue, nil
			}
			return lst[len(lst)-1], nil
		}),
	})
	register(FuncDef{
		Name: "tail", MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
		Sig: "tail(list)", Doc: "The list without its first element; empty stays empty.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			lst, ok := value.AsList(args[0])
			if !ok {
				return nil, fmt.Errorf("tail() expects a list")
			}
			if len(lst) == 0 {
				return value.List{}, nil
			}
			out := make(value.List, len(lst)-1)
			copy(out, lst[1:])
			return out, nil
		}),
	})
	register(FuncDef{
		Name: "reverse", MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
		Sig: "reverse(x)", Doc: "A list or string with its elements in reverse order.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			switch x := args[0].(type) {
			case value.List:
				out := make(value.List, len(x))
				for i, v := range x {
					out[len(x)-1-i] = v
				}
				return out, nil
			case value.String:
				rs := []rune(string(x))
				for i, j := 0, len(rs)-1; i < j; i, j = i+1, j-1 {
					rs[i], rs[j] = rs[j], rs[i]
				}
				return value.String(rs), nil
			}
			return nil, fmt.Errorf("reverse() expects a list or string")
		}),
	})
	register(FuncDef{
		Name: "range", MinArgs: 2, MaxArgs: 3, Pure: true, Deterministic: true,
		Sig: "range(start, end [, step])", Doc: "Integers from start to end inclusive, stepping by step (default 1).",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			var nums [3]int64
			nums[2] = 1
			for i, a := range args {
				n, ok := value.AsInt(a)
				if !ok {
					return nil, fmt.Errorf("range() expects integers")
				}
				nums[i] = n
			}
			start, end, step := nums[0], nums[1], nums[2]
			if step == 0 {
				return nil, fmt.Errorf("range() step must not be zero")
			}
			// Count elements up front (in floats, immune to int64
			// overflow) both to preallocate and to refuse absurd ranges
			// instead of exhausting memory.
			const maxRangeLen = 1 << 24
			span := (float64(end) - float64(start)) / float64(step)
			if span < 0 {
				return value.List{}, nil
			}
			if span >= maxRangeLen {
				return nil, fmt.Errorf("range() result exceeds %d elements", maxRangeLen)
			}
			count := int64(span) + 1
			out := make(value.List, 0, count)
			for i, v := int64(0), start; i < count; i, v = i+1, v+step {
				out = append(out, value.Int(v))
			}
			return out, nil
		}),
	})
	register(FuncDef{
		Name: "coalesce", MinArgs: 1, MaxArgs: -1, Pure: true, Total: true, Deterministic: true,
		Sig: "coalesce(v, ...)", Doc: "The first non-null argument; null when all are null.",
		Fn: func(ev *Evaluator, args []value.Value) (value.Value, error) {
			for _, a := range args {
				if !value.IsNull(a) {
					return a, nil
				}
			}
			return value.NullValue, nil
		},
	})
}

func registerGraphFuncs() {
	register(FuncDef{
		Name: "exists", MinArgs: 1, MaxArgs: 1, Pure: true, Total: true, Deterministic: true, BoolValued: true,
		Sig: "exists(v)", Doc: "True when the value is not null; exists(n.prop) tests property presence.",
		Fn: func(ev *Evaluator, args []value.Value) (value.Value, error) {
			return value.Bool(!value.IsNull(args[0])), nil
		},
	})
	register(FuncDef{
		Name: "keys", MinArgs: 1, MaxArgs: 1, Deterministic: true,
		Sig: "keys(x)", Doc: "Sorted property keys of a node, relationship or map.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			m, err := ev.entityProps(args[0], "keys")
			if err != nil {
				return nil, err
			}
			out := make(value.List, 0, len(m))
			for _, k := range m.Keys() {
				out = append(out, value.String(k))
			}
			return out, nil
		}),
	})
	register(FuncDef{
		Name: "properties", MinArgs: 1, MaxArgs: 1, Deterministic: true,
		Sig: "properties(x)", Doc: "The property map of a node, relationship or map.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			return ev.entityProps(args[0], "properties")
		}),
	})
	register(FuncDef{
		Name: "id", MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
		Sig: "id(x)", Doc: "The internal identifier of a node or relationship.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			switch x := args[0].(type) {
			case value.Node:
				return value.Int(x.ID), nil
			case value.Rel:
				return value.Int(x.ID), nil
			}
			return nil, fmt.Errorf("id() expects a node or relationship, got %s", args[0].Kind())
		}),
	})
	register(FuncDef{
		Name: "labels", MinArgs: 1, MaxArgs: 1, Deterministic: true,
		Sig: "labels(n)", Doc: "The sorted labels of a node.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			n, ok := args[0].(value.Node)
			if !ok {
				return nil, fmt.Errorf("labels() expects a node, got %s", args[0].Kind())
			}
			gn := ev.Graph.Node(graphNodeID(n))
			if gn == nil {
				return value.NullValue, nil
			}
			ls := ev.Graph.LabelNames(gn)
			out := make(value.List, len(ls))
			for i, l := range ls {
				out[i] = value.String(l)
			}
			return out, nil
		}),
	})
	register(FuncDef{
		Name: "type", MinArgs: 1, MaxArgs: 1, Deterministic: true,
		Sig: "type(r)", Doc: "The type of a relationship.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			r, ok := args[0].(value.Rel)
			if !ok {
				return nil, fmt.Errorf("type() expects a relationship, got %s", args[0].Kind())
			}
			gr := ev.Graph.Rel(graphRelID(r))
			if gr == nil {
				return value.NullValue, nil
			}
			return value.String(ev.Graph.TypeName(gr)), nil
		}),
	})
	register(FuncDef{
		Name: "startNode", MinArgs: 1, MaxArgs: 1, Deterministic: true,
		Sig: "startNode(r)", Doc: "The source node of a relationship.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			r, ok := args[0].(value.Rel)
			if !ok {
				return nil, fmt.Errorf("startNode() expects a relationship")
			}
			gr := ev.Graph.Rel(graphRelID(r))
			if gr == nil {
				return value.NullValue, nil
			}
			return value.Node{ID: int64(gr.Src)}, nil
		}),
	})
	register(FuncDef{
		Name: "endNode", MinArgs: 1, MaxArgs: 1, Deterministic: true,
		Sig: "endNode(r)", Doc: "The target node of a relationship.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			r, ok := args[0].(value.Rel)
			if !ok {
				return nil, fmt.Errorf("endNode() expects a relationship")
			}
			gr := ev.Graph.Rel(graphRelID(r))
			if gr == nil {
				return value.NullValue, nil
			}
			return value.Node{ID: int64(gr.Tgt)}, nil
		}),
	})
	register(FuncDef{
		Name: "nodes", MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
		Sig: "nodes(p)", Doc: "The nodes of a path, in traversal order.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			p, ok := args[0].(value.Path)
			if !ok {
				return nil, fmt.Errorf("nodes() expects a path, got %s", args[0].Kind())
			}
			out := make(value.List, len(p.Nodes))
			for i, id := range p.Nodes {
				out[i] = value.Node{ID: id}
			}
			return out, nil
		}),
	})
	register(FuncDef{
		Name: "relationships", MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
		Sig: "relationships(p)", Doc: "The relationships of a path, in traversal order.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			p, ok := args[0].(value.Path)
			if !ok {
				return nil, fmt.Errorf("relationships() expects a path, got %s", args[0].Kind())
			}
			out := make(value.List, len(p.Rels))
			for i, id := range p.Rels {
				out[i] = value.Rel{ID: id}
			}
			return out, nil
		}),
	})
}

func registerStringFuncs() {
	stringDefs := []struct {
		name, doc string
		f         func(string) string
	}{
		{"toUpper", "The string uppercased.", strings.ToUpper},
		{"toLower", "The string lowercased.", strings.ToLower},
		{"trim", "The string with leading and trailing whitespace removed.", strings.TrimSpace},
		{"lTrim", "The string with leading whitespace removed.", func(s string) string { return strings.TrimLeft(s, " \t\r\n") }},
		{"rTrim", "The string with trailing whitespace removed.", func(s string) string { return strings.TrimRight(s, " \t\r\n") }},
	}
	for _, sd := range stringDefs {
		sd := sd
		register(FuncDef{
			Name: sd.name, MinArgs: 1, MaxArgs: 1, Pure: true, Deterministic: true,
			Sig: sd.name + "(s)", Doc: sd.doc,
			Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
				s, err := strArg(sd.name, args[0])
				if err != nil {
					return nil, err
				}
				return value.String(sd.f(s)), nil
			}),
		})
	}
	register(FuncDef{
		Name: "replace", MinArgs: 3, MaxArgs: 3, Pure: true, Deterministic: true,
		Sig: "replace(s, from, to)", Doc: "The string with every occurrence of from replaced by to.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			s, err := strArg("replace", args[0])
			if err != nil {
				return nil, err
			}
			if value.IsNull(args[1]) || value.IsNull(args[2]) {
				return value.NullValue, nil
			}
			from, err := strArg("replace", args[1])
			if err != nil {
				return nil, err
			}
			to, err := strArg("replace", args[2])
			if err != nil {
				return nil, err
			}
			return value.String(strings.ReplaceAll(s, from, to)), nil
		}),
	})
	register(FuncDef{
		Name: "split", MinArgs: 2, MaxArgs: 2, Pure: true, Deterministic: true,
		Sig: "split(s, sep)", Doc: "The list of substrings of s delimited by sep.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			s, err := strArg("split", args[0])
			if err != nil {
				return nil, err
			}
			if value.IsNull(args[1]) {
				return value.NullValue, nil
			}
			sep, err := strArg("split", args[1])
			if err != nil {
				return nil, err
			}
			parts := strings.Split(s, sep)
			out := make(value.List, len(parts))
			for i, p := range parts {
				out[i] = value.String(p)
			}
			return out, nil
		}),
	})
	register(FuncDef{
		Name: "left", MinArgs: 2, MaxArgs: 2, Pure: true, Deterministic: true,
		Sig: "left(s, n)", Doc: "The first n characters of the string.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			s, err := strArg("left", args[0])
			if err != nil {
				return nil, err
			}
			n, ok := value.AsInt(args[1])
			if !ok || n < 0 {
				return nil, fmt.Errorf("left() expects a non-negative integer")
			}
			rs := []rune(s)
			if n > int64(len(rs)) {
				n = int64(len(rs))
			}
			return value.String(rs[:n]), nil
		}),
	})
	register(FuncDef{
		Name: "right", MinArgs: 2, MaxArgs: 2, Pure: true, Deterministic: true,
		Sig: "right(s, n)", Doc: "The last n characters of the string.",
		Fn: nullIn(func(ev *Evaluator, args []value.Value) (value.Value, error) {
			s, err := strArg("right", args[0])
			if err != nil {
				return nil, err
			}
			n, ok := value.AsInt(args[1])
			if !ok || n < 0 {
				return nil, fmt.Errorf("right() expects a non-negative integer")
			}
			rs := []rune(s)
			if n > int64(len(rs)) {
				n = int64(len(rs))
			}
			return value.String(rs[int64(len(rs))-n:]), nil
		}),
	})
	register(FuncDef{
		Name: "substring", MinArgs: 2, MaxArgs: 3, Pure: true, Deterministic: true,
		Sig: "substring(s, start [, len])", Doc: "The substring starting at 0-based start, optionally length-limited.",
		Fn: func(ev *Evaluator, args []value.Value) (value.Value, error) {
			if value.IsNull(args[0]) {
				return value.NullValue, nil
			}
			s, err := strArg("substring", args[0])
			if err != nil {
				return nil, err
			}
			start, ok := value.AsInt(args[1])
			if !ok || start < 0 {
				return nil, fmt.Errorf("substring() start must be a non-negative integer")
			}
			rs := []rune(s)
			if start > int64(len(rs)) {
				start = int64(len(rs))
			}
			end := int64(len(rs))
			if len(args) == 3 {
				n, ok := value.AsInt(args[2])
				if !ok || n < 0 {
					return nil, fmt.Errorf("substring() length must be a non-negative integer")
				}
				if start+n < end {
					end = start + n
				}
			}
			return value.String(rs[start:end]), nil
		},
	})
}

func registerTemporal() {
	register(FuncDef{
		Name: "timestamp", MinArgs: 0, MaxArgs: 0, Total: true,
		Sig: "timestamp()", Doc: "The current time as milliseconds since the Unix epoch; nondeterministic.",
		Fn: func(ev *Evaluator, args []value.Value) (value.Value, error) {
			return value.Int(time.Now().UnixMilli()), nil
		},
	})
	register(FuncDef{
		Name: "datetime", MinArgs: 0, MaxArgs: 1,
		Sig: "datetime([epochMillis])", Doc: "UTC calendar components of an epoch-millisecond instant (default: now) as a map.",
		Fn: func(ev *Evaluator, args []value.Value) (value.Value, error) {
			var ms int64
			if len(args) == 0 {
				ms = time.Now().UnixMilli()
			} else {
				if value.IsNull(args[0]) {
					return value.NullValue, nil
				}
				var ok bool
				ms, ok = value.AsInt(args[0])
				if !ok {
					return nil, fmt.Errorf("datetime() expects epoch milliseconds, got %s", args[0].Kind())
				}
			}
			t := time.UnixMilli(ms).UTC()
			return value.Map{
				"year":        value.Int(int64(t.Year())),
				"month":       value.Int(int64(t.Month())),
				"day":         value.Int(int64(t.Day())),
				"hour":        value.Int(int64(t.Hour())),
				"minute":      value.Int(int64(t.Minute())),
				"second":      value.Int(int64(t.Second())),
				"millisecond": value.Int(int64(t.Nanosecond() / 1e6)),
				"epochMillis": value.Int(ms),
			}, nil
		},
	})
}
