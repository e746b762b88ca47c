// Cost-based planning for pattern matching.
//
// The seed matcher walked every pattern part left to right from its
// first node, so `MATCH (a:Rare)<-[:R]-(b:Common)` scanned the huge
// Common label instead of the tiny Rare one. The planner fixes that
// with three levers, all driven by the graph's O(1) statistics
// (internal/graph/stats.go):
//
//   - Anchor selection: each part starts at its most selective node —
//     pre-bound variables beat everything, then the smallest label
//     cardinality, discounted for inline property maps and pushed WHERE
//     predicates — and the walk expands bidirectionally from there.
//   - Side orientation: when the anchor is in the middle of a path, the
//     side with the lower estimated first-hop fanout (average degree per
//     (label, rel-type)) is expanded first, so the cheaper constraint
//     prunes before the expensive one runs.
//   - Part ordering: comma-separated parts run in greedy order of
//     estimated anchor cardinality; parts connected to already-bound
//     variables naturally come first because a bound anchor costs ~0.
//
// Correctness: a pattern is a conjunction of constraints, and the
// relationship-uniqueness side condition is a set-membership test, so
// the multiset of matches is independent of the order in which slots
// are bound — only the enumeration ORDER of the results changes. The
// planner equivalence suite in internal/core checks multiset equality
// across forced anchor choices and the naive walk, and the property
// oracles there check it on generated statements.
package match

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/value"
)

// step is one relationship expansion of a planned walk: traverse
// Part.Rels[rel] from the already-bound node slot `from` to bind node
// slot `to`. reversed marks right-to-left traversal (the pattern
// direction is flipped when consulting adjacency).
type step struct {
	rel      int
	from, to int
	reversed bool
}

// seekPlan describes an index-backed anchor: instead of scanning the
// anchor label, enumeration reads one bucket of the (label, prop)
// property index — the nodes whose stored prop equals the seek value.
// The value is either the anchor slot's inline property map entry
// (fromProps) or the opposite side of a pushed `v.prop = expr` WHERE
// conjunct (val); it is evaluated per driving record at enumeration
// time, and any evaluation failure falls back to the plain label scan
// so runtime errors surface exactly as they would without the index.
type seekPlan struct {
	label, prop string
	val         ast.Expr // equality conjunct's value side; nil when fromProps
	fromProps   bool     // value comes from the slot's inline property map
}

// partPlan is the execution plan of one pattern part.
type partPlan struct {
	part    *ast.PatternPart
	origIdx int     // position in the written pattern tuple
	anchor  int     // node slot enumeration starts from
	est     float64 // estimated anchor candidate count
	seek    *seekPlan
	steps   []step
	// nodeSyms and relSyms hold each slot's names resolved against the
	// graph's symbol table (resolveSyms), by node and relationship slot.
	nodeSyms []slotSyms
	relSyms  []slotSyms
}

// slotSyms is one pattern slot's names as the graph's interned ids, so
// candidate checks compare integers: a node slot's labels or a
// relationship slot's types, and the keys of its inline map literal
// (parallel to the literal's Keys, noSym for a key never interned).
type slotSyms struct {
	names []graph.SymID
	keys  []graph.SymID
	// none marks a slot no entity can satisfy: a node label or every
	// relationship type named is not interned in the graph.
	none bool
}

// noSym stands for a name the graph never interned: no stored property
// has it as key.
const noSym = ^graph.SymID(0)

// resolveSyms fills the plans' slot names from g's symbol table. It
// only looks names up, so the plans hold while g.SymStamp stands.
func resolveSyms(g *graph.Graph, plans []partPlan) {
	for i := range plans {
		pp := &plans[i]
		pp.nodeSyms = make([]slotSyms, len(pp.part.Nodes))
		for j, np := range pp.part.Nodes {
			ss := &pp.nodeSyms[j]
			for _, l := range np.Labels {
				id, ok := g.Sym(l)
				ss.names = append(ss.names, id)
				ss.none = ss.none || !ok
			}
			ss.keys = literalKeys(g, np.Props)
		}
		pp.relSyms = make([]slotSyms, len(pp.part.Rels))
		for j, rp := range pp.part.Rels {
			ss := &pp.relSyms[j]
			for _, t := range rp.Types {
				if id, ok := g.Sym(t); ok {
					ss.names = append(ss.names, id)
				}
			}
			ss.none = len(rp.Types) > 0 && len(ss.names) == 0
			ss.keys = literalKeys(g, rp.Props)
		}
	}
}

// literalKeys resolves the keys of an inline map literal; any other
// property expression has its keys resolved per evaluation.
func literalKeys(g *graph.Graph, props ast.Expr) []graph.SymID {
	ml, ok := props.(*ast.MapLit)
	if !ok {
		return nil
	}
	keys := make([]graph.SymID, len(ml.Keys))
	for i, k := range ml.Keys {
		id, ok := g.Sym(k)
		if !ok {
			id = noSym
		}
		keys[i] = id
	}
	return keys
}

// planParts orders the parts and picks an anchor and walk for each.
// bound is the set of slots already bound when enumeration starts (the
// driving-table columns); variables bound by earlier parts extend it as
// the greedy order is fixed.
func (m *Matcher) planParts(parts []*ast.PatternPart, bound map[int]bool) []partPlan {
	// Inline property maps may reference pattern variables bound by the
	// written left-to-right walk, e.g. (x:A)-[:T]->(y {k: x.k}). Any
	// other slot order would evaluate such a map before its dependency
	// is bound. Rather than track per-slot dependencies, fall back to
	// the written order and anchors for the whole clause — the seed
	// behaviour, errors included — whenever a pattern's own variables
	// appear in its property maps.
	if m.ForceAnchor == nil && dependentProps(parts, bound) {
		plans := make([]partPlan, len(parts))
		for i, part := range parts {
			plans[i] = partPlan{part: part, origIdx: i, anchor: 0, est: m.anchorEstimate(part.Nodes[0], bound), steps: forwardSteps(part)}
		}
		resolveSyms(m.Graph, plans)
		return plans
	}
	// Forced anchors (the planner-equivalence debug hook) and the
	// disabled planner keep the written part order, so the hook controls
	// exactly one dimension.
	fixedOrder := m.DisablePlan || m.ForceAnchor != nil
	plans := make([]partPlan, 0, len(parts))
	remaining := make([]int, len(parts))
	for i := range parts {
		remaining[i] = i
	}
	for len(remaining) > 0 {
		pick := 0
		var best partPlan
		if fixedOrder {
			best = m.planPart(parts[remaining[0]], remaining[0], bound)
		} else {
			bestCost := math.Inf(1)
			for ri, idx := range remaining {
				p := m.planPart(parts[idx], idx, bound)
				if p.est < bestCost {
					bestCost, best, pick = p.est, p, ri
				}
			}
		}
		plans = append(plans, best)
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		eachVar(best.part, func(_ string, slot int) { bound[slot] = true })
	}
	resolveSyms(m.Graph, plans)
	return plans
}

// dependentProps reports whether any inline property map in parts
// references a pattern variable that is not already bound on entry —
// the condition under which slot evaluation order is observable.
func dependentProps(parts []*ast.PatternPart, bound map[int]bool) bool {
	vars := make(map[string]bool)
	for _, part := range parts {
		eachVar(part, func(name string, slot int) {
			if !bound[slot] {
				vars[name] = true
			}
		})
	}
	refs := func(e ast.Expr) bool {
		if e == nil {
			return false
		}
		for _, v := range ast.Variables(e) {
			if vars[v] {
				return true
			}
		}
		return false
	}
	for _, part := range parts {
		for _, np := range part.Nodes {
			if refs(np.Props) {
				return true
			}
		}
		for _, rp := range part.Rels {
			if refs(rp.Props) {
				return true
			}
		}
	}
	return false
}

// forwardSteps is the written left-to-right walk from node 0.
func forwardSteps(part *ast.PatternPart) []step {
	var out []step
	for i := range part.Rels {
		out = append(out, step{rel: i, from: i, to: i + 1})
	}
	return out
}

// naivePlans is the seed's enumeration: written part order, first-node
// anchors, forward walks. Estimates are irrelevant for execution.
func naivePlans(g *graph.Graph, parts []*ast.PatternPart) []partPlan {
	plans := make([]partPlan, len(parts))
	for i, part := range parts {
		plans[i] = partPlan{part: part, origIdx: i, anchor: 0, steps: forwardSteps(part)}
	}
	resolveSyms(g, plans)
	return plans
}

// naiveRequired reports whether this row must take the seed's walk with
// pruning disabled, because a planned walk could change which runtime
// error surfaces:
//
//   - a pattern variable bound to a value of the wrong kind (the seed
//     raises a type error at that slot exactly when its walk reaches
//     it, and a variable-length slot rejects any pre-binding);
//   - an inline property expression that can error at evaluation time
//     (arithmetic, missing parameters, …) — anchoring or reordering
//     changes whether the erroring slot is ever reached.
//
// The check reads the row's actual values, so a mis-typed binding only
// forces the naive walk for the rows that have it.
func (m *Matcher) naiveRequired(parts []*ast.PatternPart, row []value.Value) bool {
	for _, part := range parts {
		for _, np := range part.Nodes {
			if np.Var != "" {
				if v := row[np.Slot]; v != nil && !value.IsNull(v) {
					if _, isNode := v.(value.Node); !isNode {
						return true
					}
				}
			}
			if m.propsFallible(parts, np.Props, row) {
				return true
			}
		}
		for _, rp := range part.Rels {
			if rp.Var != "" {
				if v := row[rp.Slot]; v != nil {
					if rp.VarLength {
						// Pre-bound var-length variables are an error
						// (even null): surface it in seed order.
						return true
					}
					if !value.IsNull(v) {
						if _, isRel := v.(value.Rel); !isRel {
							return true
						}
					}
				}
			}
			if m.propsFallible(parts, rp.Props, row) {
				return true
			}
		}
	}
	return false
}

// propsFallible reports whether an inline property expression could
// error when evaluated on this row. Total forms: literal maps whose
// values are literals (possibly sign-prefixed), defined variables, or
// single property accesses on values that property access accepts
// (nodes, relationships, maps, null — checked against the row for outer
// variables, guaranteed for node/relationship slot variables); and
// parameters that are present and hold maps. Anything else is
// conservatively fallible.
func (m *Matcher) propsFallible(parts []*ast.PatternPart, props ast.Expr, row []value.Value) bool {
	switch p := props.(type) {
	case nil:
		return false
	case *ast.MapLit:
		for _, v := range p.Vals {
			if m.propValueFallible(parts, v, row) {
				return true
			}
		}
		return false
	case *ast.Parameter:
		if m.Ev == nil {
			return true
		}
		v, ok := m.Ev.Params[p.Name]
		if !ok {
			return true
		}
		_, isMap := v.(value.Map)
		return !isMap
	}
	return true
}

func (m *Matcher) propValueFallible(parts []*ast.PatternPart, e ast.Expr, row []value.Value) bool {
	switch x := e.(type) {
	case *ast.Literal:
		return false
	case *ast.UnaryOp:
		if x.Op == ast.OpNeg || x.Op == ast.OpPos {
			if lit, ok := x.Expr.(*ast.Literal); ok {
				switch lit.Value.(type) {
				case int64, float64:
					return false
				}
			}
		}
		return true
	case *ast.Parameter:
		if m.Ev == nil {
			return true
		}
		_, ok := m.Ev.Params[x.Name]
		return !ok
	case *ast.Variable:
		if row[x.Slot] != nil {
			return false
		}
		return !isSlotVar(parts, x.Name)
	case *ast.PropAccess:
		v, isVar := x.Expr.(*ast.Variable)
		if !isVar {
			return true
		}
		if bv := row[v.Slot]; bv != nil {
			switch bv.(type) {
			case value.Node, value.Rel, value.Map, value.Null:
				return false
			}
			return true
		}
		return !isSlotVar(parts, v.Name)
	case *ast.ListLit:
		for _, el := range x.Elems {
			if m.propValueFallible(parts, el, row) {
				return true
			}
		}
		return false
	}
	return true
}

// isSlotVar reports whether name is a node or single-relationship slot
// variable of the pattern — guaranteed to hold an entity in any row the
// walk evaluates it on.
func isSlotVar(parts []*ast.PatternPart, name string) bool {
	for _, part := range parts {
		for _, np := range part.Nodes {
			if np.Var == name {
				return true
			}
		}
		for _, rp := range part.Rels {
			if rp.Var == name && !rp.VarLength {
				return true
			}
		}
	}
	return false
}

// planPart picks the anchor slot for one part and lays out the walk.
func (m *Matcher) planPart(part *ast.PatternPart, origIdx int, bound map[int]bool) partPlan {
	anchor := -1
	var seek *seekPlan
	if m.ForceAnchor != nil {
		if a := m.ForceAnchor(origIdx, part); a >= 0 && a < len(part.Nodes) {
			anchor = a
		}
	}
	est := math.Inf(1)
	if anchor >= 0 {
		est, seek = m.anchorChoice(part.Nodes[anchor], bound)
	} else if m.DisablePlan {
		anchor = 0
		est = m.anchorEstimate(part.Nodes[0], bound)
	} else {
		for i, np := range part.Nodes {
			if e, s := m.anchorChoice(np, bound); e < est {
				est, anchor, seek = e, i, s
			}
		}
	}
	return partPlan{
		part:    part,
		origIdx: origIdx,
		anchor:  anchor,
		est:     est,
		seek:    seek,
		steps:   m.planSteps(part, anchor),
	}
}

// estimateFingerprint captures the statistics inputs of a plan: the
// anchor estimate of every node slot of every part, in written order,
// against the entry-bound slot set. A PlanSlot re-validates its
// plan by recomputing this vector (O(1) statistic reads per slot) and
// checking it for drift, instead of discarding the plan on every
// structural version bump.
func (m *Matcher) estimateFingerprint(parts []*ast.PatternPart, bound map[int]bool) []float64 {
	var fp []float64
	for _, part := range parts {
		for _, np := range part.Nodes {
			e, _ := m.anchorChoice(np, bound)
			fp = append(fp, e)
		}
	}
	return fp
}

// Drift tolerance for cached plans: an estimate may move by a factor of
// driftFactor before the plan is re-planned, and estimates below
// driftFloor candidates are considered equivalent (tiny cardinalities
// reorder cheaply at execution time anyway, and absolute slack keeps a
// near-empty graph from replanning while it fills).
const (
	driftFactor = 2.0
	driftFloor  = 16.0
)

// estimatesDrifted reports whether the statistics moved enough since a
// plan was cached that its anchor/order choices may be stale.
func estimatesDrifted(old, cur []float64) bool {
	if len(old) != len(cur) {
		return true
	}
	for i := range old {
		lo, hi := old[i], cur[i]
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi <= driftFloor {
			continue
		}
		if lo*driftFactor < hi {
			return true
		}
	}
	return false
}

// anchorEstimate scores a node slot: the estimated number of candidate
// nodes enumeration would start from. Lower is better.
func (m *Matcher) anchorEstimate(np *ast.NodePattern, bound map[int]bool) float64 {
	if np.Var != "" && bound[np.Slot] {
		// A bound variable is a single candidate (or an immediate miss).
		return 0.5
	}
	est := float64(m.Graph.NumNodes())
	if len(np.Labels) > 0 {
		min := m.Graph.NodeCountByLabel(np.Labels[0])
		for _, l := range np.Labels[1:] {
			if c := m.Graph.NodeCountByLabel(l); c < min {
				min = c
			}
		}
		est = float64(min)
	}
	// Inline property maps and pushed WHERE predicates are selective;
	// the factors are crude but only relative order matters.
	if np.Props != nil {
		keys := 1
		if ml, ok := np.Props.(*ast.MapLit); ok {
			keys = len(ml.Keys)
		}
		est *= math.Pow(0.1, float64(keys))
	}
	if !m.DisablePlan {
		est *= math.Pow(0.5, float64(len(m.NodePreds[np])))
	}
	return est
}

// anchorChoice scores a node slot like anchorEstimate and additionally
// considers index-backed seeks: when a property index covers one of
// the slot's labels and an equality constraint on that property is
// available — an inline property map entry, or a pushed `v.prop = expr`
// WHERE conjunct whose value side does not reference v — the slot
// anchors on the seek with the smallest estimated bucket
// (IndexAvgBucket, O(1)). A seek is preferred whenever one exists: it
// enumerates a subset of the label scan's candidates under the same
// per-candidate checks, so it can never visit more than the scan. The
// returned estimate is the scan estimate capped by the bucket size, so
// part ordering sees the tighter bound.
func (m *Matcher) anchorChoice(np *ast.NodePattern, bound map[int]bool) (float64, *seekPlan) {
	est := m.anchorEstimate(np, bound)
	if m.DisablePlan || (np.Var != "" && bound[np.Slot]) {
		return est, nil
	}
	best, seek := math.Inf(1), (*seekPlan)(nil)
	for _, label := range np.Labels {
		if ml, ok := np.Props.(*ast.MapLit); ok {
			for _, k := range ml.Keys {
				if b := m.Graph.IndexAvgBucket(label, k); b >= 0 && b < best {
					best, seek = b, &seekPlan{label: label, prop: k, fromProps: true}
				}
			}
		}
		for _, c := range m.NodePreds[np] {
			prop, rhs := equalitySeek(c, np.Var)
			if prop == "" {
				continue
			}
			if b := m.Graph.IndexAvgBucket(label, prop); b >= 0 && b < best {
				best, seek = b, &seekPlan{label: label, prop: prop, val: rhs}
			}
		}
	}
	if seek != nil && best < est {
		est = best
	}
	return est, seek
}

// equalitySeek recognizes a `v.prop = expr` or `expr = v.prop`
// conjunct whose expr side does not reference v, returning the property
// name and the value expression ("" and nil when the conjunct has no
// such shape). Only these conjuncts can seed an index seek: the value
// must be computable before the slot is bound.
func equalitySeek(c ast.Expr, varName string) (string, ast.Expr) {
	b, ok := c.(*ast.BinaryOp)
	if !ok || b.Op != ast.OpEq || varName == "" {
		return "", nil
	}
	try := func(l, r ast.Expr) (string, ast.Expr) {
		pa, ok := l.(*ast.PropAccess)
		if !ok {
			return "", nil
		}
		v, ok := pa.Expr.(*ast.Variable)
		if !ok || v.Name != varName {
			return "", nil
		}
		for _, rv := range ast.Variables(r) {
			if rv == varName {
				return "", nil
			}
		}
		return pa.Key, r
	}
	if prop, e := try(b.Left, b.Right); prop != "" {
		return prop, e
	}
	return try(b.Right, b.Left)
}

// planSteps lays out the relationship expansions for a part anchored at
// the given node slot: one contiguous run towards each end of the path,
// lower estimated first-hop fanout first.
func (m *Matcher) planSteps(part *ast.PatternPart, anchor int) []step {
	var right, left []step
	for i := anchor; i < len(part.Rels); i++ {
		right = append(right, step{rel: i, from: i, to: i + 1})
	}
	for i := anchor - 1; i >= 0; i-- {
		left = append(left, step{rel: i, from: i + 1, to: i, reversed: true})
	}
	if len(left) == 0 {
		return right
	}
	if len(right) == 0 {
		return left
	}
	if m.DisablePlan || m.stepFanout(part, right[0]) <= m.stepFanout(part, left[0]) {
		return append(right, left...)
	}
	return append(left, right...)
}

// stepFanout estimates how many relationships one expansion step visits
// per source node, from the average-degree statistics.
func (m *Matcher) stepFanout(part *ast.PatternPart, st step) float64 {
	rp := part.Rels[st.rel]
	from := part.Nodes[st.from]
	label := ""
	if len(from.Labels) > 0 {
		label = from.Labels[0]
		best := m.Graph.NodeCountByLabel(label)
		for _, l := range from.Labels[1:] {
			if c := m.Graph.NodeCountByLabel(l); c < best {
				best, label = c, l
			}
		}
	}
	deg := func(relType string) float64 {
		var out float64
		d := effectiveDir(rp.Direction, st.reversed)
		if d == ast.DirOut || d == ast.DirBoth {
			out += m.Graph.AvgOutDegree(label, relType)
		}
		if d == ast.DirIn || d == ast.DirBoth {
			out += m.Graph.AvgInDegree(label, relType)
		}
		return out
	}
	if len(rp.Types) == 0 {
		return deg("")
	}
	var total float64
	for _, t := range rp.Types {
		total += deg(t)
	}
	return total
}

// effectiveDir flips a pattern direction for right-to-left traversal.
func effectiveDir(d ast.Direction, reversed bool) ast.Direction {
	if !reversed {
		return d
	}
	switch d {
	case ast.DirOut:
		return ast.DirIn
	case ast.DirIn:
		return ast.DirOut
	}
	return ast.DirBoth
}

// ---------------------------------------------------------------------
// WHERE pushdown classification
// ---------------------------------------------------------------------

// Conjuncts flattens the top-level AND tree of a predicate.
func Conjuncts(e ast.Expr) []ast.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*ast.BinaryOp); ok && b.Op == ast.OpAnd {
		return append(Conjuncts(b.Left), Conjuncts(b.Right)...)
	}
	return []ast.Expr{e}
}

// Pushdown classifies the WHERE conjuncts of a MATCH clause against its
// pattern. outer lists the variables bound before the clause runs (the
// driving-table columns). The result maps single-slot conjuncts to
// their node or relationship pattern, and collects conjuncts over outer
// variables only as pre-predicates checked before enumeration starts.
//
// Pushed predicates are used to PRUNE only: a candidate on which a
// conjunct evaluates to false or null can never satisfy the full WHERE,
// so skipping it changes neither the result multiset nor the order of
// the surviving rows; evaluation errors defer the conjunct to the full
// WHERE, which every consumer still applies to complete matches. That
// argument is what keeps pushdown semantically invisible — including
// for OPTIONAL MATCH, whose null row depends only on whether any match
// survives the WHERE.
//
// Errors are part of the contract too. Pruning a candidate suppresses
// the evaluation of the OTHER conjuncts on that candidate's
// completions, so if one of them would error (`1/0 = 1 AND a.x = 1`),
// pruning on `a.x = 1` would turn the seed's runtime error into a
// silent empty result. A conjunct is therefore eligible for pushdown
// only when every other conjunct is total — statically incapable of
// erroring (comparisons and IS NULL over literals, defined variables
// and slot-variable property accesses; see totalBool). A lone conjunct
// is always eligible: there is nobody else's error to hide, and its own
// errors defer.
type Pushdown struct {
	Node map[*ast.NodePattern][]ast.Expr
	Rel  map[*ast.RelPattern][]ast.Expr
	Pre  []ast.Expr
}

// Empty reports whether nothing was pushed.
func (p *Pushdown) Empty() bool {
	return p == nil || (len(p.Node) == 0 && len(p.Rel) == 0 && len(p.Pre) == 0)
}

// NewPushdown classifies where's conjuncts. A nil result means no
// conjunct is pushable.
func NewPushdown(where ast.Expr, parts []*ast.PatternPart, outer []string) *Pushdown {
	if where == nil {
		return nil
	}
	nodeSlots := make(map[string][]*ast.NodePattern)
	relSlots := make(map[string][]*ast.RelPattern)
	unpushable := make(map[string]bool) // path vars, var-length rel vars
	for _, part := range parts {
		if part.Var != "" {
			unpushable[part.Var] = true
		}
		for _, np := range part.Nodes {
			if np.Var != "" {
				nodeSlots[np.Var] = append(nodeSlots[np.Var], np)
			}
		}
		for _, rp := range part.Rels {
			if rp.Var == "" {
				continue
			}
			if rp.VarLength {
				unpushable[rp.Var] = true
			} else {
				relSlots[rp.Var] = append(relSlots[rp.Var], rp)
			}
		}
	}
	outerSet := make(map[string]bool, len(outer))
	for _, c := range outer {
		outerSet[c] = true
	}

	// defined: every variable a complete match row provides; entity:
	// slot variables guaranteed to hold a node or relationship there.
	defined := make(map[string]bool, len(outer))
	entity := make(map[string]bool)
	for _, c := range outer {
		defined[c] = true
	}
	for _, v := range PatternVariables(parts) {
		defined[v] = true
	}
	for v := range nodeSlots {
		entity[v] = true
	}
	for v := range relSlots {
		entity[v] = true
	}

	conjs := Conjuncts(where)
	nonTotal := 0
	totals := make([]bool, len(conjs))
	for i, c := range conjs {
		totals[i] = totalBool(c, defined, entity)
		if !totals[i] {
			nonTotal++
		}
	}
	eligible := func(i int) bool {
		return nonTotal == 0 || (nonTotal == 1 && !totals[i])
	}

	pd := &Pushdown{}
	for ci, c := range conjs {
		if !eligible(ci) {
			continue
		}
		// A pushed conjunct is evaluated once to prune and again when
		// the full WHERE re-applies, so a nondeterministic or impure
		// function call (rand(), timestamp(), graph readers) inside it
		// could disagree between the two evaluations and change the
		// result multiset. Such conjuncts are never pushed.
		if containsUnstableCall(c) {
			continue
		}
		var slotVars []string
		ok := true
		for _, v := range ast.Variables(c) {
			if outerSet[v] {
				continue
			}
			if unpushable[v] || (nodeSlots[v] == nil && relSlots[v] == nil) {
				ok = false // not decidable before the full match
				break
			}
			slotVars = append(slotVars, v)
		}
		if !ok {
			continue
		}
		switch len(slotVars) {
		case 0:
			pd.Pre = append(pd.Pre, c)
		case 1:
			v := slotVars[0]
			if nps := nodeSlots[v]; nps != nil {
				if pd.Node == nil {
					pd.Node = make(map[*ast.NodePattern][]ast.Expr)
				}
				for _, np := range nps {
					pd.Node[np] = append(pd.Node[np], c)
				}
			} else {
				if pd.Rel == nil {
					pd.Rel = make(map[*ast.RelPattern][]ast.Expr)
				}
				for _, rp := range relSlots[v] {
					pd.Rel[rp] = append(pd.Rel[rp], c)
				}
			}
		}
	}
	if pd.Empty() {
		return nil
	}
	return pd
}

// containsUnstableCall reports whether the expression contains a
// function call whose two evaluations on the same row could disagree:
// nondeterministic (rand, timestamp) or impure (graph readers — safe
// today because reads run against an immutable snapshot, but excluded
// so the pushdown contract does not depend on that).
func containsUnstableCall(e ast.Expr) bool {
	unstable := false
	ast.Walk(e, func(x ast.Expr) bool {
		if f, ok := x.(*ast.FuncCall); ok {
			if def := expr.LookupFunc(f.Name); def != nil && (!def.Deterministic || !def.Pure) {
				unstable = true
			}
		}
		return !unstable
	})
	return unstable
}

// totalBool reports whether e is statically guaranteed to evaluate via
// EvalBool without error (yielding true/false/null) on any complete
// match row: ternary comparisons, IS NULL, boolean combinations
// thereof, and calls of registered boolean-valued total functions, over
// total operands. Conservative by design — arithmetic, string
// predicates, IN, indexing, parameters and any function the registry
// does not vouch for (pure + total + deterministic) count as fallible.
func totalBool(e ast.Expr, defined, entity map[string]bool) bool {
	switch x := e.(type) {
	case *ast.Literal:
		_, isBool := x.Value.(bool)
		return isBool || x.Value == nil
	case *ast.Const:
		_, isBool := x.Val.(value.Bool)
		return isBool || value.IsNull(x.Val)
	case *ast.IsNull:
		return totalOperand(x.Expr, defined, entity)
	case *ast.UnaryOp:
		return x.Op == ast.OpNot && totalBool(x.Expr, defined, entity)
	case *ast.FuncCall:
		return totalCall(x, defined, entity, true)
	case *ast.BinaryOp:
		switch x.Op {
		case ast.OpEq, ast.OpNeq, ast.OpLt, ast.OpLeq, ast.OpGt, ast.OpGeq:
			return totalOperand(x.Left, defined, entity) && totalOperand(x.Right, defined, entity)
		case ast.OpAnd, ast.OpOr, ast.OpXor:
			return totalBool(x.Left, defined, entity) && totalBool(x.Right, defined, entity)
		}
	}
	return false
}

// totalCall consults the function registry: a call is total when its
// definition is pure, total and deterministic (so pruning on it neither
// errors nor double-draws), its arity is statically valid, and every
// argument is a total operand. In predicate position (boolCtx) the
// result must additionally be boolean-valued, because EvalBool errors
// on other kinds.
func totalCall(f *ast.FuncCall, defined, entity map[string]bool, boolCtx bool) bool {
	if f.Distinct || f.Star {
		return false
	}
	def := expr.LookupFunc(f.Name)
	if def == nil || !def.Pure || !def.Total || !def.Deterministic {
		return false
	}
	if boolCtx && !def.BoolValued {
		return false
	}
	if def.CheckArity(len(f.Args)) != nil {
		return false
	}
	for _, a := range f.Args {
		if !totalOperand(a, defined, entity) {
			return false
		}
	}
	return true
}

// totalOperand reports whether e evaluates without error on any
// complete match row: literals, plan-time constants, defined variables,
// property access on a variable that is guaranteed to hold an entity
// (property access on nulls and entities is total; on scalars it
// type-errors), and calls of total registry functions over total
// operands.
func totalOperand(e ast.Expr, defined, entity map[string]bool) bool {
	switch x := e.(type) {
	case *ast.Literal:
		return true
	case *ast.Const:
		return true
	case *ast.Variable:
		return defined[x.Name]
	case *ast.PropAccess:
		v, isVar := x.Expr.(*ast.Variable)
		return isVar && entity[v.Name]
	case *ast.FuncCall:
		return totalCall(x, defined, entity, false)
	}
	return false
}

// Describe renders the pushed predicates for EXPLAIN.
func (p *Pushdown) Describe() string {
	if p.Empty() {
		return ""
	}
	var preds []string
	for _, c := range p.Pre {
		preds = append(preds, c.String())
	}
	for _, cs := range p.Node {
		for _, c := range cs {
			preds = append(preds, c.String())
		}
	}
	for _, cs := range p.Rel {
		for _, c := range cs {
			preds = append(preds, c.String())
		}
	}
	sort.Strings(preds)
	return "[" + strings.Join(preds, " AND ") + "]"
}

// ---------------------------------------------------------------------
// EXPLAIN support
// ---------------------------------------------------------------------

// DescribePlan renders the plan the matcher would choose for the given
// pattern under its bound slots: the part execution order (indices into
// the written pattern), each part's anchor, and the estimated anchor
// cardinalities. Statistics are read at call time, so the description
// matches what execution would do on the current graph.
func (m *Matcher) DescribePlan(parts []*ast.PatternPart) string {
	plans := m.planParts(parts, m.entryBound())
	order := make([]string, len(plans))
	anchors := make([]string, len(plans))
	ests := make([]string, len(plans))
	for i, p := range plans {
		order[i] = fmt.Sprint(p.origIdx)
		a := p.part.Nodes[p.anchor]
		switch {
		case p.seek != nil:
			anchors[i] = fmt.Sprintf("index-seek(:%s.%s)", p.seek.label, p.seek.prop)
		case a.Var != "":
			anchors[i] = a.Var
		default:
			anchors[i] = a.String()
		}
		ests[i] = formatEst(p.est)
	}
	return fmt.Sprintf("order=[%s] anchor=[%s] est=[%s]",
		strings.Join(order, ","), strings.Join(anchors, ","), strings.Join(ests, ","))
}

func formatEst(est float64) string {
	if est == math.Trunc(est) && est < 1e9 {
		return fmt.Sprintf("%.0f", est)
	}
	return fmt.Sprintf("%.2g", est)
}
