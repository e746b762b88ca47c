package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/plan"
	"repro/internal/value"
)

// execMerge dispatches a MERGE clause to the configured strategy.
func (x *executor) execMerge(cl *ast.MergeClause, in *plan.Batch, cols []string) (*plan.Batch, error) {
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
		return x.execMergeLegacy(cl, in, cols)
	}
	return x.execMergeAtomicFamily(cl, in, cols, strategy)
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
// The output table is T_match ⊎ T_create in input-record order, with
// created-entity references rewritten to class representatives.
func (x *executor) execMergeAtomicFamily(cl *ast.MergeClause, in *plan.Batch, cols []string, strategy MergeStrategy) (*plan.Batch, error) {
	nIn := len(in.Columns())
	fresh := cols[nIn:]
	out := plan.NewBatch(cols, in.Len())
	env := make(expr.Env, len(cols))

	// Phase 1: match every record against the input graph. A record's
	// matches go straight to the output; a failing record leaves a row
	// whose fresh columns phase 2 fills.
	m := x.matcherFor(x.ev, cl.Pattern)
	var it match.Iter
	sink := out.AppendEnv
	var fails []mergeFail
	for i := 0; i < in.Len(); i++ {
		in.LoadEnv(env, i)
		it.Reset(m, cl.Pattern, env, nil)
		n, err := it.Next(math.MaxInt, sink)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			fails = append(fails, mergeFail{in: i, out: out.Len()})
			out.AppendEnv(env)
		}
	}

	// Phase 2: create for the failing records, one instance per record
	// (Atomic) or per group of records agreeing on the pattern's
	// expressions (every other strategy).
	var allCreated []createdEntity
	groups := make(map[string]int) // grouping key -> output row of the group's instance
	setFresh := func(row int) {
		for k, v := range fresh {
			out.Column(nIn + k)[row] = env[v]
		}
	}
	for _, f := range fails {
		loadRow(env, in, f.in, fresh)
		if strategy != StrategyAtomic {
			key, err := x.mergeGroupKey(cl.Pattern, env)
			if err != nil {
				return nil, err
			}
			if shared, ok := groups[key]; ok {
				for k, v := range fresh {
					env[v] = out.Value(shared, nIn+k)
				}
				setFresh(f.out)
				continue
			}
			groups[key] = f.out
		}
		if err := x.createInstance(cl.Pattern, env, true, &allCreated); err != nil {
			return nil, err
		}
		setFresh(f.out)
	}

	// Phase 3: collapse (Weak/Collapse/Strong only), rewriting the
	// created rows' references to the class representatives.
	if strategy == StrategyWeakCollapse || strategy == StrategyCollapse || strategy == StrategyStrongCollapse {
		nodeRemap, relRemap, err := x.collapseCreated(allCreated, strategy)
		if err != nil {
			return nil, err
		}
		for j := range cols {
			col := out.Column(j)
			for _, f := range fails {
				col[f.out] = remapValue(col[f.out], nodeRemap, relRemap)
			}
		}
	}

	// ON CREATE / ON MATCH (legal in the Cypher 9 dialect only; the
	// revised validator rejects them) are applied as one atomic SET
	// pass over the output rows.
	if len(cl.OnCreate) > 0 || len(cl.OnMatch) > 0 {
		cs := graph.NewChangeSet()
		for r, next := 0, 0; r < out.Len(); r++ {
			items := cl.OnMatch
			if next < len(fails) && fails[next].out == r {
				items = cl.OnCreate
				next++
			}
			out.LoadEnv(env, r)
			for _, item := range items {
				if err := x.collectSetItem(cs, item, env); err != nil {
					return nil, err
				}
			}
		}
		if err := x.applyChanges(cs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mergeFail places a record that matched nothing: its row in the
// driving batch and the output row its created bindings fill.
type mergeFail struct{ in, out int }

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
		key := strings.Join(x.graph.LabelNames(n), ",") + "|" + value.MapKey(x.graph.PropMap(n.Props))
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
		key := x.graph.TypeName(r) + "|" + value.MapKey(x.graph.PropMap(r.Props)) + "|" +
			strconv.FormatInt(int64(src), 10) + ">" + strconv.FormatInt(int64(tgt), 10)
		if strategy != StrategyStrongCollapse {
			key += "|@" + strconv.Itoa(ce.part) + "." + strconv.Itoa(ce.slot)
		}
		c, ok := classes[key]
		if !ok {
			c = &relClass{src: src, tgt: tgt, relType: x.graph.TypeName(r), props: x.graph.PropMap(r.Props)}
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
