package core

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/value"
)

// This file implements the revised update semantics of Section 7/8:
// every clause is two-phase. Phase one evaluates all expressions for all
// records against the *input* graph and accumulates the induced changes;
// phase two validates the accumulated set (conflicts, dangling
// relationships) and applies it atomically.

// execSetRevised implements the atomic SET: propchanges/labchanges are
// collected over the whole driving table, conflicting property writes
// abort the statement (Example 2), and the collected changes are applied
// in one step — so Example 1's swap reads both old values.
func (x *executor) execSetRevised(items []ast.SetItem, in *plan.Batch) error {
	cs := graph.NewChangeSet()
	row, slots := x.rowOver(in.Columns())
	for i := 0; i < in.Len(); i++ {
		in.Load(row, i, slots)
		for _, item := range items {
			if err := x.collectSetItem(cs, item, row); err != nil {
				return err
			}
		}
	}
	return x.applyChanges(cs)
}

// collectSetItem records the changes a single SET item induces for one
// record into the change set, evaluating all expressions against the
// input graph.
func (x *executor) collectSetItem(cs *graph.ChangeSet, item ast.SetItem, row []value.Value) error {
	switch it := item.(type) {
	case *ast.SetProp:
		target, err := x.ev.Eval(it.Target, row)
		if err != nil {
			return err
		}
		ref, ok, err := entityRef(target, "SET")
		if err != nil || !ok {
			return err
		}
		v, err := x.ev.Eval(it.Value, row)
		if err != nil {
			return err
		}
		return cs.SetProp(ref, it.Key, v)
	case *ast.SetAllProps:
		target, err := bound(row, it.Slot, it.Var)
		if err != nil {
			return err
		}
		ref, ok, err := entityRef(target, "SET")
		if err != nil || !ok {
			return err
		}
		v, err := x.ev.Eval(it.Value, row)
		if err != nil {
			return err
		}
		m, err := x.coerceToPropMap(v)
		if err != nil {
			return err
		}
		if !it.Add {
			existing, err := x.entityPropKeys(target)
			if err != nil {
				return err
			}
			for _, k := range existing {
				if _, keep := m[k]; !keep {
					if err := cs.SetProp(ref, k, value.NullValue); err != nil {
						return err
					}
				}
			}
		}
		for _, k := range m.Keys() {
			if err := cs.SetProp(ref, k, m[k]); err != nil {
				return err
			}
		}
		return nil
	case *ast.SetLabels:
		target, err := bound(row, it.Slot, it.Var)
		if err != nil {
			return err
		}
		if value.IsNull(target) {
			return nil
		}
		n, isNode := target.(value.Node)
		if !isNode {
			return fmt.Errorf("SET label target must be a node, got %s", target.Kind())
		}
		for _, l := range it.Labels {
			cs.AddLabel(graph.NodeID(n.ID), l)
		}
		return nil
	default:
		return fmt.Errorf("unsupported SET item %T", item)
	}
}

func (x *executor) coerceToPropMap(v value.Value) (value.Map, error) {
	switch e := v.(type) {
	case value.Map:
		return e, nil
	case value.Node:
		n := x.graph.Node(graph.NodeID(e.ID))
		if n == nil {
			return value.Map{}, nil
		}
		return x.graph.PropMap(n.Props), nil
	case value.Rel:
		r := x.graph.Rel(graph.RelID(e.ID))
		if r == nil {
			return value.Map{}, nil
		}
		return x.graph.PropMap(r.Props), nil
	default:
		return nil, fmt.Errorf("SET = / += expects a map, node or relationship, got %s", v.Kind())
	}
}

// bound returns the value row binds in slot, the slot of variable name.
func bound(row []value.Value, slot int, name string) (value.Value, error) {
	if v := row[slot]; v != nil {
		return v, nil
	}
	return nil, fmt.Errorf("variable `%s` not defined", name)
}

// entityRef converts a SET/REMOVE target value to an entity reference.
// ok=false (with nil error) means the target is null and the item is
// skipped, following SQL convention.
func entityRef(target value.Value, clause string) (graph.EntityRef, bool, error) {
	switch e := target.(type) {
	case value.Null:
		return graph.EntityRef{}, false, nil
	case value.Node:
		return graph.NodeRef(graph.NodeID(e.ID)), true, nil
	case value.Rel:
		return graph.RelRef(graph.RelID(e.ID)), true, nil
	default:
		return graph.EntityRef{}, false, fmt.Errorf("%s target must be a node or relationship, got %s", clause, target.Kind())
	}
}

// execRemoveRevised collects all removals and applies them atomically.
// Removals cannot conflict (Section 8.2), so no conflict errors arise
// from REMOVE alone.
func (x *executor) execRemoveRevised(cl *ast.RemoveClause, in *plan.Batch) error {
	cs := graph.NewChangeSet()
	row, slots := x.rowOver(in.Columns())
	for i := 0; i < in.Len(); i++ {
		in.Load(row, i, slots)
		for _, item := range cl.Items {
			switch it := item.(type) {
			case *ast.RemoveProp:
				target, err := x.ev.Eval(it.Target, row)
				if err != nil {
					return err
				}
				ref, ok, err := entityRef(target, "REMOVE")
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				if err := cs.RemoveProp(ref, it.Key); err != nil {
					return err
				}
			case *ast.RemoveLabels:
				target, err := bound(row, it.Slot, it.Var)
				if err != nil {
					return err
				}
				if value.IsNull(target) {
					continue
				}
				n, isNode := target.(value.Node)
				if !isNode {
					return fmt.Errorf("REMOVE label target must be a node, got %s", target.Kind())
				}
				for _, l := range it.Labels {
					cs.RemoveLabel(graph.NodeID(n.ID), l)
				}
			}
		}
	}
	return x.applyChanges(cs)
}

// execDeleteRevised implements the strict semantics of Section 7: all
// entities to delete are collected first; DETACH expands to attached
// relationships; plain DELETE errors if a dangling relationship would
// remain; everything is removed in one step, and every reference to a
// deleted entity in the driving batch is replaced by null, in place.
func (x *executor) execDeleteRevised(cl *ast.DeleteClause, in *plan.Batch) error {
	ds := graph.NewDeleteSet()
	row, slots := x.rowOver(in.Columns())
	for i := 0; i < in.Len(); i++ {
		in.Load(row, i, slots)
		for _, e := range cl.Exprs {
			v, err := x.ev.Eval(e, row)
			if err != nil {
				return err
			}
			if err := collectDelete(ds, v); err != nil {
				return err
			}
		}
	}
	if cl.Detach {
		ds.Expand(x.graph)
	}
	if err := ds.Check(x.graph); err != nil {
		return fmt.Errorf("DELETE would leave dangling relationships: %w (use DETACH DELETE)", err)
	}
	nodesBefore, relsBefore := x.graph.NumNodes(), x.graph.NumRels()
	if err := ds.Apply(x.graph); err != nil {
		return err
	}
	x.stats.NodesDeleted += nodesBefore - x.graph.NumNodes()
	x.stats.RelsDeleted += relsBefore - x.graph.NumRels()

	for j := range in.Columns() {
		col := in.Column(j)
		for i, v := range col {
			col[i] = nullDeleted(v, ds)
		}
	}
	return nil
}

func collectDelete(ds *graph.DeleteSet, v value.Value) error {
	switch e := v.(type) {
	case value.Null:
		return nil
	case value.Node:
		ds.AddNode(graph.NodeID(e.ID))
		return nil
	case value.Rel:
		ds.AddRel(graph.RelID(e.ID))
		return nil
	case value.Path:
		for _, rid := range e.Rels {
			ds.AddRel(graph.RelID(rid))
		}
		for _, nid := range e.Nodes {
			ds.AddNode(graph.NodeID(nid))
		}
		return nil
	default:
		return fmt.Errorf("DELETE expects nodes, relationships or paths, got %s", v.Kind())
	}
}

// nullDeleted replaces references to deleted entities by null, descending
// into lists, maps and paths (a path touching a deleted entity becomes
// null as a whole).
func nullDeleted(v value.Value, ds *graph.DeleteSet) value.Value {
	switch e := v.(type) {
	case value.Node:
		if ds.HasNode(graph.NodeID(e.ID)) {
			return value.NullValue
		}
	case value.Rel:
		if ds.HasRel(graph.RelID(e.ID)) {
			return value.NullValue
		}
	case value.Path:
		for _, nid := range e.Nodes {
			if ds.HasNode(graph.NodeID(nid)) {
				return value.NullValue
			}
		}
		for _, rid := range e.Rels {
			if ds.HasRel(graph.RelID(rid)) {
				return value.NullValue
			}
		}
	case value.List:
		out := make(value.List, len(e))
		for i, el := range e {
			out[i] = nullDeleted(el, ds)
		}
		return out
	case value.Map:
		out := make(value.Map, len(e))
		for k, el := range e {
			out[k] = nullDeleted(el, ds)
		}
		return out
	}
	return v
}
