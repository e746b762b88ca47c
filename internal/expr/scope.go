package expr

import "repro/internal/value"

// scope is the environment expressions evaluate under: the driving-table
// record (a flat map, shared and never mutated here) plus a chain of
// binder frames pushed by list comprehensions, quantifiers and reduce.
//
// Binders used to copy the whole map per element, which made a
// comprehension over an n-column record O(n) per element. A frame is
// one allocation and lookup walks the chain innermost-first, so nested
// binders shadow outer ones and the base record closure-style — the
// lambda-environment design the registry refactor adopted from the
// related evaluators.
type scope struct {
	env   Env
	frame *frame
}

// frame is one binder's variable, chained towards the outermost binder.
type frame struct {
	name string
	val  value.Value
	up   *frame
}

// bind pushes one binding; the receiver is unchanged.
func (s scope) bind(name string, v value.Value) scope {
	return scope{env: s.env, frame: &frame{name: name, val: v, up: s.frame}}
}

// lookup resolves a variable, innermost frame first, then the base record.
func (s scope) lookup(name string) (value.Value, bool) {
	for f := s.frame; f != nil; f = f.up {
		if f.name == name {
			return f.val, true
		}
	}
	v, ok := s.env[name]
	return v, ok
}
