package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/plan"
	"repro/internal/value"
)

// This file implements the legacy (Cypher 9) update semantics that
// Section 4 of the paper critiques. The defining property is that every
// clause streams over the driving table record by record, applying its
// effects to the live graph immediately, so that later records — and
// later items within a single clause — observe the writes of earlier
// ones.

// execSetLegacy applies SET items immediately, one record at a time and
// one item at a time. This is exactly the behaviour of Example 1 (the
// "swap" that degenerates into two sequential assignments) and Example 2
// (order-dependent final values when matches overlap).
func (x *executor) execSetLegacy(items []ast.SetItem, in *plan.Batch) error {
	row, slots := x.rowOver(in.Columns())
	for _, i := range x.rowOrder(in.Len()) {
		in.Load(row, i, slots)
		for _, item := range items {
			if err := x.applySetItemLegacy(item, row); err != nil {
				return err
			}
		}
	}
	return nil
}

func (x *executor) applySetItemLegacy(item ast.SetItem, row []value.Value) error {
	switch it := item.(type) {
	case *ast.SetProp:
		target, err := x.ev.Eval(it.Target, row)
		if err != nil {
			return err
		}
		v, err := x.ev.Eval(it.Value, row)
		if err != nil {
			return err
		}
		return x.legacySetProp(target, it.Key, v)
	case *ast.SetAllProps:
		target, err := bound(row, it.Slot, it.Var)
		if err != nil {
			return err
		}
		v, err := x.ev.Eval(it.Value, row)
		if err != nil {
			return err
		}
		return x.legacySetAllProps(target, v, it.Add)
	case *ast.SetLabels:
		target, err := bound(row, it.Slot, it.Var)
		if err != nil {
			return err
		}
		if value.IsNull(target) {
			return nil
		}
		n, ok := target.(value.Node)
		if !ok {
			return fmt.Errorf("SET label target must be a node, got %s", target.Kind())
		}
		if x.graph.Node(graph.NodeID(n.ID)) == nil {
			return nil // deleted node: legacy silently ignores (Section 4.2)
		}
		for _, l := range it.Labels {
			if x.graph.HasLabel(x.graph.Node(graph.NodeID(n.ID)), l) {
				continue // counts only a label the node gains
			}
			if err := x.graph.AddLabel(graph.NodeID(n.ID), l); err != nil {
				return err
			}
			x.stats.LabelsAdded++
		}
		return nil
	default:
		return fmt.Errorf("unsupported SET item %T", item)
	}
}

// legacySetProp writes a property, silently ignoring null targets and
// deleted entities — the Section 4.2 behaviour where a query may SET
// properties of deleted nodes "without an error".
func (x *executor) legacySetProp(target value.Value, key string, v value.Value) error {
	switch e := target.(type) {
	case value.Null:
		return nil
	case value.Node:
		if x.graph.Node(graph.NodeID(e.ID)) == nil {
			return nil
		}
		x.stats.PropsSet++
		return x.graph.SetNodeProp(graph.NodeID(e.ID), key, v)
	case value.Rel:
		if x.graph.Rel(graph.RelID(e.ID)) == nil {
			return nil
		}
		x.stats.PropsSet++
		return x.graph.SetRelProp(graph.RelID(e.ID), key, v)
	default:
		return fmt.Errorf("SET target must be a node or relationship, got %s", target.Kind())
	}
}

func (x *executor) legacySetAllProps(target, v value.Value, add bool) error {
	if value.IsNull(target) {
		return nil
	}
	m, ok := value.AsMap(v)
	if !ok {
		if nv, isNode := v.(value.Node); isNode {
			n := x.graph.Node(graph.NodeID(nv.ID))
			if n == nil {
				m = value.Map{}
			} else {
				m = x.graph.PropMap(n.Props)
			}
		} else if rv, isRel := v.(value.Rel); isRel {
			r := x.graph.Rel(graph.RelID(rv.ID))
			if r == nil {
				m = value.Map{}
			} else {
				m = x.graph.PropMap(r.Props)
			}
		} else {
			return fmt.Errorf("SET %s = ... expects a map, node or relationship, got %s", target.Kind(), v.Kind())
		}
	}
	existing, err := x.entityPropKeys(target)
	if err != nil {
		return err
	}
	if existing == nil {
		return nil // deleted entity
	}
	if !add {
		for _, k := range existing {
			if _, keep := m[k]; !keep {
				if err := x.legacySetProp(target, k, value.NullValue); err != nil {
					return err
				}
			}
		}
	}
	for _, k := range value.Map(m).Keys() {
		if err := x.legacySetProp(target, k, m[k]); err != nil {
			return err
		}
	}
	return nil
}

// entityPropKeys lists current property keys; nil result means the
// entity no longer exists.
func (x *executor) entityPropKeys(target value.Value) ([]string, error) {
	switch e := target.(type) {
	case value.Node:
		n := x.graph.Node(graph.NodeID(e.ID))
		if n == nil {
			return nil, nil
		}
		return x.graph.PropMap(n.Props).Keys(), nil
	case value.Rel:
		r := x.graph.Rel(graph.RelID(e.ID))
		if r == nil {
			return nil, nil
		}
		return x.graph.PropMap(r.Props).Keys(), nil
	default:
		return nil, fmt.Errorf("SET target must be a node or relationship, got %s", target.Kind())
	}
}

// execRemoveLegacy removes labels and properties immediately per record.
func (x *executor) execRemoveLegacy(cl *ast.RemoveClause, in *plan.Batch) error {
	row, slots := x.rowOver(in.Columns())
	for _, i := range x.rowOrder(in.Len()) {
		in.Load(row, i, slots)
		for _, item := range cl.Items {
			switch it := item.(type) {
			case *ast.RemoveProp:
				target, err := x.ev.Eval(it.Target, row)
				if err != nil {
					return err
				}
				if err := x.legacySetProp(target, it.Key, value.NullValue); err != nil {
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
				n, ok := target.(value.Node)
				if !ok {
					return fmt.Errorf("REMOVE label target must be a node, got %s", target.Kind())
				}
				if x.graph.Node(graph.NodeID(n.ID)) == nil {
					continue
				}
				for _, l := range it.Labels {
					if !x.graph.HasLabel(x.graph.Node(graph.NodeID(n.ID)), l) {
						continue // counts only a label the node loses
					}
					if err := x.graph.RemoveLabel(graph.NodeID(n.ID), l); err != nil {
						return err
					}
					x.stats.LabelsRemoved++
				}
			}
		}
	}
	return nil
}

// execDeleteLegacy deletes entities immediately per record. Deleting a
// node with attached relationships leaves them dangling mid-statement
// (Section 4.2's "illegal state"); the statement-end Validate in
// ExecuteWithTable plays the role of Neo4j's commit-time check. Deleted
// entities remain referenced by the driving table, which is how the
// Section 4.2 query can go on to SET and RETURN a deleted node.
func (x *executor) execDeleteLegacy(cl *ast.DeleteClause, in *plan.Batch) error {
	row, slots := x.rowOver(in.Columns())
	for _, i := range x.rowOrder(in.Len()) {
		in.Load(row, i, slots)
		for _, e := range cl.Exprs {
			v, err := x.ev.Eval(e, row)
			if err != nil {
				return err
			}
			if err := x.legacyDeleteValue(v, cl.Detach); err != nil {
				return err
			}
		}
	}
	return nil
}

func (x *executor) legacyDeleteValue(v value.Value, detach bool) error {
	switch e := v.(type) {
	case value.Null:
		return nil
	case value.Rel:
		if x.graph.HasRel(graph.RelID(e.ID)) {
			x.graph.DeleteRel(graph.RelID(e.ID))
			x.stats.RelsDeleted++
		}
		return nil
	case value.Node:
		id := graph.NodeID(e.ID)
		if !x.graph.HasNode(id) {
			return nil
		}
		if detach {
			before := x.graph.NumRels()
			x.graph.DetachDeleteNode(id)
			x.stats.RelsDeleted += before - x.graph.NumRels()
		} else {
			x.graph.DeleteNodeUnchecked(id)
		}
		x.stats.NodesDeleted++
		return nil
	case value.Path:
		for _, rid := range e.Rels {
			if err := x.legacyDeleteValue(value.Rel{ID: rid}, detach); err != nil {
				return err
			}
		}
		for _, nid := range e.Nodes {
			if err := x.legacyDeleteValue(value.Node{ID: nid}, detach); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("DELETE expects nodes, relationships or paths, got %s", v.Kind())
	}
}

// execMergeLegacy is the Cypher 9 MERGE: per record, match-or-create
// against the live graph. Because earlier records' creations are visible
// to later records, the result depends on the scan order — the
// nondeterminism of Example 3 / Figure 6. A record's matches are all
// written to the output before ON MATCH SET runs over them.
func (x *executor) execMergeLegacy(cl *ast.MergeClause, in *plan.Batch, cols []string) (*plan.Batch, error) {
	row, outSlots := x.rowOver(cols)
	inSlots := outSlots[:len(in.Columns())]
	out := plan.NewBatch(cols, in.Len())
	m := x.matcherFor(x.ev, cl.Pattern, inSlots)
	var it match.Iter
	sink := func(r []value.Value) { out.AppendRow(r, outSlots) }
	for _, i := range x.rowOrder(in.Len()) {
		in.Load(row, i, inSlots)
		from := out.Len()
		it.Reset(m, cl.Pattern, row, nil)
		if _, err := it.Next(math.MaxInt, sink); err != nil {
			return nil, err
		}
		if out.Len() > from {
			for r := from; r < out.Len() && len(cl.OnMatch) > 0; r++ {
				out.Load(row, r, outSlots)
				for _, item := range cl.OnMatch {
					if err := x.applySetItemLegacy(item, row); err != nil {
						return nil, err
					}
				}
			}
			continue
		}
		if err := x.createInstance(cl.Pattern, row, true, nil); err != nil {
			return nil, err
		}
		for _, item := range cl.OnCreate {
			if err := x.applySetItemLegacy(item, row); err != nil {
				return nil, err
			}
		}
		sink(row)
	}
	return out, nil
}

// execForeach expands each record by the list elements and runs the body
// update clauses over the expanded table, each over the columns
// plan.WriteColumns gives it; the driving table passes through
// unchanged (FOREACH introduces no bindings downstream).
func (x *executor) execForeach(cl *ast.ForeachClause, in *plan.Batch) error {
	if slices.Contains(in.Columns(), cl.Var) {
		return fmt.Errorf("variable `%s` already declared", cl.Var)
	}
	cur := plan.NewBatch(slices.Concat(in.Columns(), []string{cl.Var}), in.Len())
	row, curSlots := x.rowOver(cur.Columns())
	inSlots, varSlot := curSlots[:len(in.Columns())], curSlots[len(in.Columns())]
	for _, i := range x.rowOrder(in.Len()) {
		in.Load(row, i, inSlots)
		v, err := x.ev.Eval(cl.List, row)
		if err != nil {
			return err
		}
		if value.IsNull(v) {
			continue
		}
		lst, ok := value.AsList(v)
		if !ok {
			return fmt.Errorf("FOREACH expects a list, got %s", v.Kind())
		}
		for _, el := range lst {
			row[varSlot] = el
			cur.AppendRow(row, curSlots)
		}
	}
	var err error
	for _, body := range cl.Body {
		if cur, err = x.clause(body, cur, plan.WriteColumns(body, cur.Columns()), cur.Columns()); err != nil {
			return err
		}
	}
	return nil
}
