package core

import (
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/value"
)

// execCreate implements CREATE for both dialects (Section 8.2): per
// record, unnamed pattern entities are saturated with temporary
// variables, nodes are created, then relationships; new bindings for
// *named* variables extend the driving table, while saturation
// temporaries are projected out (they simply never receive columns).
//
// CREATE behaves identically in both dialects because it never reads the
// pattern against the graph; each record creates fresh instances.
func (x *executor) execCreate(cl *ast.CreateClause, in *plan.Batch, cols []string) (*plan.Batch, error) {
	row, outSlots := x.rowOver(cols)
	inSlots := outSlots[:len(in.Columns())]
	out := plan.NewBatch(cols, in.Len())
	for _, i := range x.rowOrder(in.Len()) {
		in.Load(row, i, inSlots)
		if err := x.createInstance(cl.Pattern, row, false, nil); err != nil {
			return nil, err
		}
		out.AppendRow(row, outSlots)
	}
	return out, nil
}

// createdEntity records one entity created by createInstance,
// together with its pattern position (part index plus node- or rel-slot
// index). Positions are what the Weak Collapse and Collapse strategies
// of Section 6 condition on.
type createdEntity struct {
	isNode bool
	nodeID graph.NodeID
	relID  graph.RelID
	part   int
	slot   int
}

// createInstance creates one instance of the pattern tuple for the
// record row, binding the pattern's new entities into row. When
// reuseBound is false, a bound node variable is reused as an endpoint
// only if its pattern carries no labels or properties (Cypher's rule for
// CREATE); MERGE creation passes reuseBound=true for the same behaviour
// (bound variables always anchor). A non-nil track receives each new
// entity with its pattern position, which the MERGE collapse strategies
// of Section 6 condition on.
func (x *executor) createInstance(parts []*ast.PatternPart, row []value.Value, reuseBound bool, track *[]createdEntity) error {
	// A path variable bound on entry is an error when its part is
	// reached; only the first such part can be.
	declared := slices.IndexFunc(parts, func(p *ast.PatternPart) bool {
		return p.Var != "" && row[p.Slot] != nil
	})
	for partIdx, part := range parts {
		var pathNodes []int64
		var pathRels []int64

		resolveNode := func(np *ast.NodePattern, slot int) (graph.NodeID, error) {
			if np.Var != "" {
				if bound := row[np.Slot]; bound != nil {
					nv, isNode := bound.(value.Node)
					if !isNode {
						if value.IsNull(bound) {
							return 0, fmt.Errorf("cannot create a relationship with a null endpoint (variable `%s`)", np.Var)
						}
						return 0, fmt.Errorf("variable `%s` is bound to %s, expected Node", np.Var, bound.Kind())
					}
					if !reuseBound && (len(np.Labels) > 0 || np.Props != nil) {
						return 0, fmt.Errorf("variable `%s` already declared; CREATE cannot add labels or properties to it", np.Var)
					}
					return graph.NodeID(nv.ID), nil
				}
			}
			props, err := x.ev.EvalPropMap(np.Props, row)
			if err != nil {
				return 0, err
			}
			n := x.graph.CreateNode(np.Labels, props)
			x.stats.NodesCreated++
			if track != nil {
				*track = append(*track, createdEntity{isNode: true, nodeID: n.ID, part: partIdx, slot: slot})
			}
			if np.Var != "" {
				row[np.Slot] = value.Node{ID: int64(n.ID)}
			}
			return n.ID, nil
		}

		prev, err := resolveNode(part.Nodes[0], 0)
		if err != nil {
			return err
		}
		if part.Var != "" {
			pathNodes = append(pathNodes, int64(prev))
		}
		for ri, rp := range part.Rels {
			next, err := resolveNode(part.Nodes[ri+1], ri+1)
			if err != nil {
				return err
			}
			src, tgt := prev, next
			// An undirected relationship (legal only in legacy MERGE
			// patterns) is created left to right.
			if rp.Direction == ast.DirIn {
				src, tgt = next, prev
			}
			props, err := x.ev.EvalPropMap(rp.Props, row)
			if err != nil {
				return err
			}
			r, err := x.graph.CreateRel(src, tgt, rp.Types[0], props)
			if err != nil {
				return err
			}
			x.stats.RelsCreated++
			if track != nil {
				*track = append(*track, createdEntity{isNode: false, relID: r.ID, part: partIdx, slot: ri})
			}
			if rp.Var != "" {
				if row[rp.Slot] != nil {
					return fmt.Errorf("relationship variable `%s` already declared", rp.Var)
				}
				row[rp.Slot] = value.Rel{ID: int64(r.ID)}
			}
			if part.Var != "" {
				pathNodes = append(pathNodes, int64(next))
				pathRels = append(pathRels, int64(r.ID))
			}
			prev = next
		}
		if partIdx == declared {
			return fmt.Errorf("path variable `%s` already declared", part.Var)
		}
		if part.Var != "" {
			row[part.Slot] = value.Path{Nodes: pathNodes, Rels: pathRels}
		}
	}
	return nil
}
