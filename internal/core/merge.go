package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/table"
	"repro/internal/value"
)

// execMerge dispatches a MERGE clause to the configured strategy.
func (x *executor) execMerge(cl *ast.MergeClause, t *table.Table) (*table.Table, error) {
	strategy := x.cfg.MergeStrategy
	if strategy == StrategyFromForm {
		switch cl.Form {
		case ast.MergeAll:
			strategy = StrategyAtomic
		case ast.MergeSame:
			strategy = StrategyStrongCollapse
		default: // legacy MERGE
			if x.cfg.Dialect == DialectRevised {
				return nil, fmt.Errorf("MERGE without ALL or SAME is no longer allowed (Section 7)")
			}
			strategy = StrategyLegacy
		}
	}
	if strategy == StrategyLegacy {
		return x.execMergeLegacy(cl, t)
	}
	return x.execMergeAtomicFamily(cl, t, strategy)
}

// execMergeAtomicFamily implements the deterministic MERGE semantics of
// Sections 6-8. All records are matched against the *input* graph first
// (so the clause can never read its own writes); the failing records then
// create pattern instances according to the strategy:
//
//	Atomic          one instance per failing record (MERGE ALL);
//	Grouping        one instance per group of records agreeing on the
//	                pattern's expressions;
//	Weak Collapse   grouping plus collapse of equal new entities at the
//	                same pattern position;
//	Collapse        node collapse across positions;
//	Strong Collapse relationship collapse across positions too
//	                (MERGE SAME; Definitions 1 and 2).
//
// The output table is T_match ⊎ T_create with created-entity references
// rewritten to class representatives.
func (x *executor) execMergeAtomicFamily(cl *ast.MergeClause, t *table.Table, strategy MergeStrategy) (*table.Table, error) {
	newVars := freshVarsForCreate(cl.Pattern, t)
	out := table.New(append(t.Columns(), newVars...)...)

	// Phase 1: match everything against the input graph.
	m := x.matcher()
	outcomes := make([]mergeOutcome, 0, t.Len())
	for i := 0; i < t.Len(); i++ {
		env := expr.Env(t.Row(i))
		matches, err := m.Match(cl.Pattern, env)
		if err != nil {
			return nil, err
		}
		outcomes = append(outcomes, mergeOutcome{row: i, matches: matches})
	}

	// Phase 2: create for the failing records.
	var allCreated []createdEntity
	createEnvs := make(map[int]expr.Env) // row index -> created bindings
	groups := make(map[string]expr.Env)  // grouping key -> shared bindings
	var matchRows, createRows int

	for _, oc := range outcomes {
		if len(oc.matches) > 0 {
			continue
		}
		env := expr.Env(t.Row(oc.row))
		if strategy == StrategyGrouping || strategy == StrategyWeakCollapse ||
			strategy == StrategyCollapse || strategy == StrategyStrongCollapse {
			key, err := x.mergeGroupKey(cl.Pattern, env)
			if err != nil {
				return nil, err
			}
			if shared, ok := groups[key]; ok {
				// Reuse the group's created entities for this record.
				env2 := env
				for _, v := range newVars {
					if bv, ok := shared[v]; ok {
						env2 = env2.With(v, bv)
					}
				}
				createEnvs[oc.row] = env2
				continue
			}
			env2, created, err := x.createInstanceTracked(cl.Pattern, env, true)
			if err != nil {
				return nil, err
			}
			allCreated = append(allCreated, created...)
			groups[key] = env2
			createEnvs[oc.row] = env2
			continue
		}
		// Atomic: one instance per record.
		env2, created, err := x.createInstanceTracked(cl.Pattern, env, true)
		if err != nil {
			return nil, err
		}
		allCreated = append(allCreated, created...)
		createEnvs[oc.row] = env2
	}

	// Phase 3: collapse (Weak/Collapse/Strong only).
	var nodeRemap map[graph.NodeID]graph.NodeID
	var relRemap map[graph.RelID]graph.RelID
	if strategy == StrategyWeakCollapse || strategy == StrategyCollapse || strategy == StrategyStrongCollapse {
		var err error
		nodeRemap, relRemap, err = x.collapseCreated(allCreated, strategy)
		if err != nil {
			return nil, err
		}
	}

	// Phase 4: assemble T_match ⊎ T_create in input-record order,
	// rewriting references to collapsed entities.
	for _, oc := range outcomes {
		if len(oc.matches) > 0 {
			for _, me := range oc.matches {
				out.AppendMap(me)
				matchRows++
			}
			continue
		}
		env := createEnvs[oc.row]
		if nodeRemap != nil {
			remapped := make(expr.Env, len(env))
			for k, v := range env {
				remapped[k] = remapValue(v, nodeRemap, relRemap)
			}
			env = remapped
		}
		out.AppendMap(env)
		createRows++
	}

	// ON CREATE / ON MATCH (legal in the Cypher 9 dialect only; the
	// revised validator rejects them) are applied as atomic SET passes.
	if len(cl.OnCreate) > 0 || len(cl.OnMatch) > 0 {
		if err := x.applyOnSets(cl, out, outcomes, t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mergeOutcome records, per input record, the matches found against the
// input graph (empty means the record is in T_fail).
type mergeOutcome struct {
	row     int
	matches []expr.Env
}

// applyOnSets runs ON MATCH SET over matched rows and ON CREATE SET over
// created rows, using the atomic (conflict-checked) SET semantics.
func (x *executor) applyOnSets(cl *ast.MergeClause, out *table.Table, outcomes []mergeOutcome, t *table.Table) error {
	cs := graph.NewChangeSet()
	rowIdx := 0
	for _, oc := range outcomes {
		if len(oc.matches) > 0 {
			for range oc.matches {
				env := expr.Env(out.Row(rowIdx))
				for _, item := range cl.OnMatch {
					if err := x.collectSetItem(cs, item, env); err != nil {
						return err
					}
				}
				rowIdx++
			}
			continue
		}
		env := expr.Env(out.Row(rowIdx))
		for _, item := range cl.OnCreate {
			if err := x.collectSetItem(cs, item, env); err != nil {
				return err
			}
		}
		rowIdx++
	}
	return cs.Apply(x.graph)
}

// mergeGroupKey canonically encodes the values of all expressions
// appearing in the pattern for one record: bound variables used in the
// pattern and every property map, under value equivalence (so nulls
// group together, matching Example 5's discussion of Grouping MERGE).
func (x *executor) mergeGroupKey(parts []*ast.PatternPart, env expr.Env) (string, error) {
	var sb strings.Builder
	for _, part := range parts {
		writeSlotKey := func(varName string, props ast.Expr) error {
			if varName != "" {
				if bound, ok := env[varName]; ok {
					sb.WriteString("b=")
					sb.WriteString(value.Key(bound))
					sb.WriteByte(0x1f)
					return nil
				}
			}
			m, err := x.ev.EvalPropMap(props, env)
			if err != nil {
				return err
			}
			sb.WriteString("p=")
			sb.WriteString(value.MapKey(m))
			sb.WriteByte(0x1f)
			return nil
		}
		for i, np := range part.Nodes {
			if err := writeSlotKey(np.Var, np.Props); err != nil {
				return "", err
			}
			if i < len(part.Rels) {
				if err := writeSlotKey(part.Rels[i].Var, part.Rels[i].Props); err != nil {
					return "", err
				}
			}
		}
		sb.WriteByte(0x1e)
	}
	return sb.String(), nil
}

// collapseCreated merges equal newly-created entities per Definitions 1
// and 2 of the paper:
//
//   - nodes are collapsible when they have the same labels and the same
//     properties (and, under Weak Collapse, were created at the same
//     pattern position); pre-existing nodes are only collapsible with
//     themselves, which is guaranteed here because only new entities
//     participate;
//   - relationships are collapsible when they have the same type, the
//     same properties and collapsible endpoints (and, under Weak and
//     plain Collapse, the same pattern position; Strong Collapse drops
//     the position restriction, which is what allows Figure 9b).
//
// The graph is rewritten so that each class keeps one physical entity;
// the returned remaps translate old ids to representatives.
func (x *executor) collapseCreated(created []createdEntity, strategy MergeStrategy) (map[graph.NodeID]graph.NodeID, map[graph.RelID]graph.RelID, error) {
	nodeRemap := make(map[graph.NodeID]graph.NodeID)
	relRemap := make(map[graph.RelID]graph.RelID)

	// Node classes.
	nodeClassRep := make(map[string]graph.NodeID)
	var collapsedNodes []graph.NodeID
	for _, ce := range created {
		if !ce.isNode {
			continue
		}
		n := x.graph.Node(ce.nodeID)
		key := strings.Join(n.SortedLabels(), ",") + "|" + value.MapKey(n.PropMap())
		if strategy == StrategyWeakCollapse {
			key += "|@" + strconv.Itoa(ce.part) + "." + strconv.Itoa(ce.slot)
		}
		if rep, ok := nodeClassRep[key]; ok {
			nodeRemap[ce.nodeID] = rep
			collapsedNodes = append(collapsedNodes, ce.nodeID)
		} else {
			nodeClassRep[key] = ce.nodeID
			nodeRemap[ce.nodeID] = ce.nodeID
		}
	}

	repOf := func(id graph.NodeID) graph.NodeID {
		if rep, ok := nodeRemap[id]; ok {
			return rep
		}
		return id // pre-existing node: its own representative
	}

	// Relationship classes keyed on type, properties and representative
	// endpoints (plus position except under Strong Collapse).
	type relClass struct {
		physical graph.RelID
		hasPhys  bool
		src, tgt graph.NodeID
		relType  string
		props    value.Map
		members  []graph.RelID
	}
	classes := make(map[string]*relClass)
	var classOrder []string
	for _, ce := range created {
		if ce.isNode {
			continue
		}
		r := x.graph.Rel(ce.relID)
		src, tgt := repOf(r.Src), repOf(r.Tgt)
		key := r.Type + "|" + value.MapKey(r.PropMap()) + "|" +
			strconv.FormatInt(int64(src), 10) + ">" + strconv.FormatInt(int64(tgt), 10)
		if strategy != StrategyStrongCollapse {
			key += "|@" + strconv.Itoa(ce.part) + "." + strconv.Itoa(ce.slot)
		}
		c, ok := classes[key]
		if !ok {
			c = &relClass{src: src, tgt: tgt, relType: r.Type, props: r.PropMap()}
			classes[key] = c
			classOrder = append(classOrder, key)
		}
		c.members = append(c.members, ce.relID)
		// A member whose endpoints are already the representatives can
		// serve as the physical relationship for the class.
		if !c.hasPhys && r.Src == src && r.Tgt == tgt {
			c.physical = ce.relID
			c.hasPhys = true
		}
	}

	// Rewrite the graph: one physical relationship per class. A class
	// none of whose members already joins the representative endpoints
	// gets a fresh relationship, and every member is then removed.
	var relsAdded, relsRemoved int
	for _, key := range classOrder {
		c := classes[key]
		if !c.hasPhys {
			nr, err := x.graph.CreateRel(c.src, c.tgt, c.relType, c.props)
			if err != nil {
				return nil, nil, fmt.Errorf("merge collapse: %w", err)
			}
			c.physical = nr.ID
			c.hasPhys = true
			relsAdded++
		}
		for _, rid := range c.members {
			relRemap[rid] = c.physical
			if rid != c.physical {
				x.graph.DeleteRel(rid)
				relsRemoved++
			}
		}
	}
	for _, nid := range collapsedNodes {
		if err := x.graph.DeleteNode(nid); err != nil {
			return nil, nil, fmt.Errorf("merge collapse: %w", err)
		}
	}

	// Stats reflect the post-collapse creations.
	x.stats.NodesCreated -= len(collapsedNodes)
	x.stats.RelsCreated += relsAdded - relsRemoved

	return nodeRemap, relRemap, nil
}

// remapValue rewrites entity references through the collapse remaps,
// descending into lists, maps and paths.
func remapValue(v value.Value, nodeRemap map[graph.NodeID]graph.NodeID, relRemap map[graph.RelID]graph.RelID) value.Value {
	switch e := v.(type) {
	case value.Node:
		if rep, ok := nodeRemap[graph.NodeID(e.ID)]; ok {
			return value.Node{ID: int64(rep)}
		}
	case value.Rel:
		if rep, ok := relRemap[graph.RelID(e.ID)]; ok {
			return value.Rel{ID: int64(rep)}
		}
	case value.Path:
		out := value.Path{Nodes: make([]int64, len(e.Nodes)), Rels: make([]int64, len(e.Rels))}
		for i, nid := range e.Nodes {
			if rep, ok := nodeRemap[graph.NodeID(nid)]; ok {
				out.Nodes[i] = int64(rep)
			} else {
				out.Nodes[i] = nid
			}
		}
		for i, rid := range e.Rels {
			if rep, ok := relRemap[graph.RelID(rid)]; ok {
				out.Rels[i] = int64(rep)
			} else {
				out.Rels[i] = rid
			}
		}
		return out
	case value.List:
		out := make(value.List, len(e))
		for i, el := range e {
			out[i] = remapValue(el, nodeRemap, relRemap)
		}
		return out
	case value.Map:
		out := make(value.Map, len(e))
		for k, el := range e {
			out[k] = remapValue(el, nodeRemap, relRemap)
		}
		return out
	}
	return v
}
