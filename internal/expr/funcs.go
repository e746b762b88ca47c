package expr

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/value"
)

// evalFunc dispatches non-aggregate function calls through the
// registry: resolve the name (case-insensitively), validate the arity
// before evaluating any argument so every function reports the uniform
// registry message, then evaluate arguments left to right and apply.
func (ev *Evaluator) evalFunc(f *ast.FuncCall, row []value.Value) (value.Value, error) {
	def := LookupFunc(f.Name)
	if def == nil {
		if ast.AggregateFuncs[f.Name] {
			return nil, fmt.Errorf("aggregate %s() used outside an aggregating projection", f.Name)
		}
		return nil, fmt.Errorf("unknown function %s()", f.Name)
	}
	if err := def.CheckArity(len(f.Args)); err != nil {
		return nil, err
	}
	args := make([]value.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := ev.Eval(a, row)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return def.Fn(ev, args)
}

type scalarFunc func(ev *Evaluator, args []value.Value) (value.Value, error)

// nullIn wraps a function to propagate null: any null argument yields
// a null result without invoking f. Functions that must observe nulls
// (exists, coalesce) are registered unwrapped.
func nullIn(f scalarFunc) scalarFunc {
	return func(ev *Evaluator, args []value.Value) (value.Value, error) {
		for _, a := range args {
			if value.IsNull(a) {
				return value.NullValue, nil
			}
		}
		return f(ev, args)
	}
}

func numArg(name string, v value.Value) (float64, error) {
	f, ok := value.AsFloat(v)
	if !ok {
		return 0, fmt.Errorf("%s() expects a number, got %s", name, v.Kind())
	}
	return f, nil
}

func strArg(name string, v value.Value) (string, error) {
	s, ok := value.AsString(v)
	if !ok {
		return "", fmt.Errorf("%s() expects a string, got %s", name, v.Kind())
	}
	return s, nil
}

func parseFloatValue(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

func graphNodeID(n value.Node) graph.NodeID { return graph.NodeID(n.ID) }
func graphRelID(r value.Rel) graph.RelID    { return graph.RelID(r.ID) }

func toIntegerFunc(ev *Evaluator, args []value.Value) (value.Value, error) {
	if value.IsNull(args[0]) {
		return value.NullValue, nil
	}
	switch x := args[0].(type) {
	case value.Int:
		return x, nil
	case value.Float:
		return value.Int(int64(x)), nil
	case value.String:
		s := strings.TrimSpace(string(x))
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return value.Int(n), nil
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return value.Int(int64(f)), nil
		}
		return value.NullValue, nil
	}
	return nil, fmt.Errorf("toInteger() expects a number or string")
}

// entityProps returns the property map of a node, relationship or map value.
func (ev *Evaluator) entityProps(v value.Value, fname string) (value.Map, error) {
	switch x := v.(type) {
	case value.Node:
		n := ev.Graph.Node(graph.NodeID(x.ID))
		if n == nil {
			return value.Map{}, nil
		}
		return ev.Graph.PropMap(n.Props), nil
	case value.Rel:
		r := ev.Graph.Rel(graph.RelID(x.ID))
		if r == nil {
			return value.Map{}, nil
		}
		return ev.Graph.PropMap(r.Props), nil
	case value.Map:
		return x, nil
	default:
		return nil, fmt.Errorf("%s() expects a node, relationship or map, got %s", fname, v.Kind())
	}
}
