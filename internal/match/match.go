// Package match implements Cypher pattern matching: given a property
// graph, a tuple of path patterns and an assignment of already-bound
// variables, it enumerates all assignments of the pattern's variables to
// graph entities such that the pattern is satisfied — the relation
// (p, G, u) |= pi of the paper's Section 8.1.
//
// Two matching modes are provided:
//
//   - Isomorphism (the Cypher default described in Section 2): distinct
//     relationship slots in one MATCH must bind distinct relationships,
//     which keeps query outputs finite for variable-length patterns.
//   - Homomorphism: relationship slots may share relationships. The paper
//     discusses this mode in Example 7, where a pattern inserted by
//     MERGE with Strong Collapse semantics can only be re-matched under
//     homomorphism.
//
// Enumeration is cost-based (planner.go): statistics maintained by the
// graph store choose each part's anchor node, the walk direction, and
// the order of comma-separated parts. The order of results is still
// deterministic for a given graph state — anchor candidates ascend by
// entity id and expansions follow sorted adjacency — which the engine
// relies on for reproducible legacy-mode runs. Every caller (the MATCH
// operator, MERGE, the legacy updates and anchor morsels) enumerates
// through one resumable iterator (Iter), so they all see that order.
package match

import (
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/value"
)

// Mode selects the relationship-uniqueness regime.
type Mode int

// Matching modes.
const (
	Isomorphism Mode = iota
	Homomorphism
)

// Stats counts the work a Matcher performs. The streaming executor
// attaches one per MATCH operator so tests (and EXPLAIN output) can
// observe how much of the search space an early-exiting pipeline
// actually visited.
type Stats struct {
	// NodeVisits counts candidate nodes considered for a node pattern.
	NodeVisits int64
	// RelVisits counts candidate relationships considered for expansion.
	RelVisits int64
	// Emitted counts matches found, before the iterator's Filter.
	Emitted int64
}

// Matcher finds pattern matches in a graph.
type Matcher struct {
	Graph *graph.Graph
	Ev    *expr.Evaluator
	Mode  Mode
	// Stats, when non-nil, accumulates visit counters during matching.
	Stats *Stats

	// DisablePlan turns cost-based planning off: parts run in written
	// order, every part anchors at its first node, and pushed predicates
	// are ignored. This naive walk is also the fallback Iter.Reset takes
	// whenever planning could change which runtime error surfaces; the
	// planner-equivalence tests force it to compare the two.
	DisablePlan bool
	// ForceAnchor, when non-nil, overrides anchor selection for testing:
	// it receives each part's index in the written pattern and may
	// return a node-slot index (or a negative value to keep the cost-
	// based choice). While forced, parts stay in written order so the
	// hook controls exactly one planning dimension.
	ForceAnchor func(partIdx int, part *ast.PatternPart) int

	// Pushed WHERE conjuncts (see Pushdown): consulted during
	// enumeration to prune candidates early. Pruning is speculative —
	// the full WHERE is still evaluated by the consumer, and a conjunct
	// whose evaluation errors is simply deferred there.
	NodePreds map[*ast.NodePattern][]ast.Expr
	RelPreds  map[*ast.RelPattern][]ast.Expr
	PrePreds  []ast.Expr

	// Bound lists the row slots a seed row binds on entry: the slots of
	// the driving columns, fixed for the matcher's life. It keys the
	// plan, with the pattern.
	Bound []int

	// Slot holds the pattern's plan (see PlanSlot); nil makes a private
	// one on first use. seen is the slot entry this matcher last
	// validated and seenVer the graph version it validated it at: while
	// the version stands, a driving record reuses seen without touching
	// the slot.
	Slot    *PlanSlot
	seen    *slotEntry
	seenVer int64
}

// SetPushdown installs the pushed predicates of a classified WHERE.
func (m *Matcher) SetPushdown(pd *Pushdown) {
	if pd == nil {
		m.NodePreds, m.RelPreds, m.PrePreds = nil, nil, nil
		return
	}
	m.NodePreds, m.RelPreds, m.PrePreds = pd.Node, pd.Rel, pd.Pre
}

// prePredsExclude reports whether a pre-predicate rules row out.
// Pre-predicates reference only already-bound variables: when one is
// definitively not true, no extension of row can pass the full WHERE,
// so enumeration is skipped wholesale. Errors defer to the consumer's
// WHERE evaluation over complete rows.
func (m *Matcher) prePredsExclude(row []value.Value) bool {
	for _, p := range m.PrePreds {
		tri, err := m.Ev.EvalBool(p, row)
		if err == nil && tri != value.True {
			return true
		}
	}
	return false
}

// plansFor returns the execution plan for parts under the matcher's
// bound slots. The per-record path takes no lock, does no atomic add
// and allocates nothing: it reuses the entry this matcher validated
// last while the graph version is unchanged, and consults the slot only
// otherwise. The test hooks bypass the slot.
func (m *Matcher) plansFor(parts []*ast.PatternPart) []partPlan {
	if m.ForceAnchor != nil || m.DisablePlan {
		return m.planParts(parts, m.entryBound())
	}
	ver := m.Graph.Version()
	if e := m.seen; e != nil && m.seenVer == ver && e.idxEpoch == m.Graph.IndexEpoch() && e.symStamp == m.Graph.SymStamp() && e.fits(parts, m.Bound) {
		return e.plans
	}
	if m.Slot == nil {
		m.Slot = NewPlanSlot(nil)
	}
	m.seen, m.seenVer = m.Slot.plan(m, parts, ver), ver
	return m.seen.plans
}

// entryBound returns a fresh set of the matcher's bound slots, which the
// planner extends as it binds pattern variables.
func (m *Matcher) entryBound() map[int]bool {
	bound := make(map[int]bool, len(m.Bound))
	for _, s := range m.Bound {
		bound[s] = true
	}
	return bound
}

// Iter is a resumable enumeration of the matches of a pattern tuple
// that extend one seed slot row (see ast.Names). It walks the planned
// parts depth first over an explicit stack of frames — a part's anchor
// candidates, a single hop's relationship candidates, one level of a
// variable-length search — so Next can return after any match and
// later resume where it stopped, all on the caller's goroutine.
//
// The iterator owns one row and binds into it in place: a taken
// candidate sets its variables' slots there and records them on a
// trail. Every frame holds the trail length it was pushed at; before it
// takes its next candidate or is popped, it unwinds the trail to that
// mark. Pushed WHERE conjuncts, inline property maps and the Filter all
// evaluate against that live row, so visiting a candidate builds
// nothing. In Isomorphism mode a candidate relationship must not be one
// a frame below the top took: the frames hold the pattern's few taken
// relationships, so the check scans them.
//
// The zero Iter is exhausted; Reset starts an enumeration. The stack,
// the row and the scratch storage are reused across Resets, so an
// operator keeps one Iter for all its driving rows.
type Iter struct {
	// Filter, when non-nil, is applied to every match (the clause's
	// WHERE): Next passes on only the matches it reports true for, and
	// an error from it ends the enumeration with that error. Like the
	// sink, it sees the live row and must not keep or write it (a
	// binder's write is undone before it returns). Reset keeps it.
	Filter func([]value.Value) (bool, error)

	m     *Matcher
	plans []partPlan
	// ap, when non-nil, supplies the first part's anchor candidates.
	ap *AnchorPlan
	// naive disables pushed-predicate pruning on the seed walk (see
	// naiveRequired).
	naive bool
	stack []frame
	// nodes and rels are each part's current slot bindings: the nodes
	// steps start from, and the relationships of a path value.
	nodes [][]graph.NodeID
	rels  [][][]graph.RelID
	// row is the seed's bindings plus those of the taken candidates of
	// the frames on the stack; trail lists the latter in binding order.
	row   []value.Value
	trail []binding
	// vals holds a map literal's entry values while propsSatisfy
	// compares them.
	vals []value.Value
	// sink receives the current Next call's matches; n counts them.
	sink func([]value.Value)
	n    int
	err  error
}

// binding is one trail entry: a slot a taken candidate bound and what
// it held before (nil: unbound). Only a path variable can replace a
// binding — the seed may bind it, and the part rebinds it.
type binding struct {
	slot int
	old  value.Value
}

type frameKind uint8

const (
	rootFrame   frameKind = iota // one candidate: the seed row entering part 0
	anchorFrame                  // node candidates of a part's anchor slot
	hopFrame                     // relationship candidates of a single-hop step
	varFrame                     // one level of a variable-length step's search
)

// frame is one level of the search: a candidate list, how many of its
// candidates have been taken (the last taken is pos-1), and the trail
// length it was pushed at. A var frame whose depth reaches the minimum
// hop count starts at pos -1: taking that "stop here" entry ends the
// path at the frame's node before any longer path is tried.
type frame struct {
	kind       frameKind
	preBound   bool // hop frames: the row already binds the relationship variable
	part, step int
	depth      int          // var frames: hops taken so far in this step
	at         graph.NodeID // var frames: the node this level expands from
	pos        int
	mark       int // len(Iter.trail) when the frame was pushed
	nodes      []graph.NodeID
	rels       []relCandidate
}

// Reset starts it over the matches of parts that extend row, a row over
// the statement's names whose bound slots are m.Bound. Those variables
// constrain the match; the matches also bind the pattern's unbound
// variables (a named path binds a value.Path). Reset copies row into
// the iterator's own row and never writes row. A non-nil ap — from
// PlanAnchors over parts, or a Chunk of it — supplies the plan and
// restricts the first planned part's anchor slot to ap's candidates.
func (it *Iter) Reset(m *Matcher, parts []*ast.PatternPart, row []value.Value, ap *AnchorPlan) {
	it.m, it.ap, it.err = m, ap, nil
	it.stack, it.trail = it.stack[:0], it.trail[:0]
	it.row = append(it.row[:0], row...)
	row = it.row
	it.naive = ap == nil && (m.DisablePlan || m.naiveRequired(parts, row))
	if !it.naive && m.prePredsExclude(row) {
		return
	}
	switch {
	case ap != nil:
		it.plans = ap.plans
	case it.naive:
		// The seed's walk, bit for bit: written order, first-node
		// anchors, no pruning — so every runtime error (mistyped
		// binding, erroring property expression) surfaces exactly when
		// and where it always did.
		it.plans = naivePlans(m.Graph, parts)
	default:
		it.plans = m.plansFor(parts)
	}
	it.nodes = resize(it.nodes, len(it.plans))
	it.rels = resize(it.rels, len(it.plans))
	for i, pp := range it.plans {
		it.nodes[i] = resize(it.nodes[i], len(pp.part.Nodes))
		it.rels[i] = resize(it.rels[i], len(pp.part.Rels))
	}
	it.push(frame{kind: rootFrame})
}

// resize returns s with length n, reusing its storage when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Next passes up to max further matches, in enumeration order, to sink
// and returns how many it passed. It stops right after the max-th, so
// no candidate past it is visited; fewer than max means the enumeration
// is over. sink sees the iterator's live row, valid only until it
// returns: it must copy what it keeps and must not write it. On an
// error Next returns the number of matches passed before it with the
// error, and every later call returns the error alone.
func (it *Iter) Next(max int, sink func([]value.Value)) (int, error) {
	it.sink, it.n = sink, 0
	for it.n < max && len(it.stack) > 0 && it.err == nil {
		it.err = it.advance()
	}
	it.sink = nil
	return it.n, it.err
}

// Done reports whether the enumeration is over: exhausted or failed.
func (it *Iter) Done() bool { return len(it.stack) == 0 || it.err != nil }

// advance takes the top frame's next candidate, or pops the frame when
// it has none left. Either way the frame first unwinds the bindings of
// the candidate it took before.
func (it *Iter) advance() error {
	top := len(it.stack) - 1
	f := &it.stack[top]
	it.unwind(f.mark)
	switch f.kind {
	case rootFrame:
		if f.pos == 0 {
			f.pos++
			return it.enterPart(0)
		}
	case anchorFrame:
		if f.pos < len(f.nodes) {
			f.pos++
			return it.takeAnchor(top)
		}
	case hopFrame:
		if f.pos < len(f.rels) {
			f.pos++
			return it.takeHop(top)
		}
	case varFrame:
		if f.pos < len(f.rels) {
			f.pos++
			if f.pos == 0 {
				return it.takeEnd(top)
			}
			return it.takeVarHop(top)
		}
	}
	it.stack = it.stack[:top]
	return nil
}

// push enters frame f at the trail's current length.
func (it *Iter) push(f frame) {
	f.mark = len(it.trail)
	it.stack = append(it.stack, f)
}

// bind sets slot s of the live row to v and records it on the trail.
func (it *Iter) bind(s int, v value.Value) {
	it.trail = append(it.trail, binding{slot: s, old: it.row[s]})
	it.row[s] = v
}

// unwind undoes the bindings recorded past trail length mark, newest
// first.
func (it *Iter) unwind(mark int) {
	for i := len(it.trail) - 1; i >= mark; i-- {
		it.row[it.trail[i].slot] = it.trail[i].old
	}
	it.trail = it.trail[:mark]
}

// used reports whether a frame below the top took relationship rid. A
// frame below the top has finished taking its candidate: a hop frame's
// relationship is bound, and a var frame's is a hop of a path, either
// one ended by a stop entry above it or the one the top frame extends.
func (it *Iter) used(rid graph.RelID) bool {
	for _, f := range it.stack[:len(it.stack)-1] {
		if (f.kind == hopFrame || f.kind == varFrame) && f.pos > 0 && f.rels[f.pos-1].rid == rid {
			return true
		}
	}
	return false
}

// enterPart starts part pi, or emits the live row once every part is
// matched.
func (it *Iter) enterPart(pi int) error {
	if pi == len(it.plans) {
		return it.emit()
	}
	m := it.m
	pp := &it.plans[pi]
	np, ns := pp.part.Nodes[pp.anchor], &pp.nodeSyms[pp.anchor]
	f := frame{kind: anchorFrame, part: pi}
	if pi == 0 && it.ap != nil {
		f.nodes = it.ap.anchors
	} else {
		if np.Var != "" {
			if v := it.row[np.Slot]; v != nil {
				// Pre-bound variable: check, do not enumerate.
				id, ok, err := asNode(np, v)
				if err != nil || !ok {
					return err
				}
				if ok, err = it.nodeSatisfies(id, np, ns); err != nil || !ok {
					return err
				}
				it.nodes[pi][pp.anchor] = id
				return it.enterStep(pi, 0)
			}
		}
		// A seek narrows the candidates to one bucket of a property
		// index; the full per-candidate checks still run, so the seek is
		// semantically invisible.
		seeked := false
		if pp.seek != nil {
			f.nodes, seeked = m.seekCandidates(pp.seek, np, it.row)
		}
		if !seeked {
			f.nodes = m.nodeCandidates(ns)
		}
	}
	it.push(f)
	return nil
}

// takeAnchor binds anchor frame i's next node candidate and starts the
// part's first step.
func (it *Iter) takeAnchor(i int) error {
	f := &it.stack[i]
	id, pi := f.nodes[f.pos-1], f.part
	if it.m.Stats != nil {
		it.m.Stats.NodeVisits++
	}
	pp := &it.plans[pi]
	ok, err := it.nodeSatisfies(id, pp.part.Nodes[pp.anchor], &pp.nodeSyms[pp.anchor])
	if err != nil || !ok {
		return err
	}
	it.nodes[pi][pp.anchor] = id
	return it.enterStep(pi, 0)
}

// enterStep starts step si of part pi. Past the last step it binds the
// part's path variable — nodes and relationships in written order,
// whatever the walk — and enters the next part.
func (it *Iter) enterStep(pi, si int) error {
	pp := &it.plans[pi]
	if si == len(pp.steps) {
		if pp.part.Var != "" {
			it.bind(pp.part.Slot, it.path(pi))
		}
		return it.enterPart(pi + 1)
	}
	st := pp.steps[si]
	rp := pp.part.Rels[st.rel]
	at := it.nodes[pi][st.from]
	f := frame{kind: hopFrame, part: pi, step: si}
	var preBound *graph.RelID
	if rp.Var != "" {
		if v := it.row[rp.Slot]; v != nil {
			if rp.VarLength {
				return fmt.Errorf("variable-length relationship variable `%s` cannot be pre-bound", rp.Var)
			}
			rv, isRel := v.(value.Rel)
			if !isRel {
				if value.IsNull(v) {
					return nil
				}
				return fmt.Errorf("variable `%s` is bound to %s, expected Relationship", rp.Var, v.Kind())
			}
			id := graph.RelID(rv.ID)
			preBound, f.preBound = &id, true
		}
	}
	if rp.VarLength {
		it.pushLevel(f, at, 0)
		return nil
	}
	f.rels = it.m.relCandidates(it.spare(), rp, at, preBound, st.reversed)
	it.push(f)
	return nil
}

// spare returns, emptied, the candidate storage the frame that last
// occupied the next stack slot left behind.
func (it *Iter) spare() []relCandidate {
	if n := len(it.stack); n < cap(it.stack) {
		return it.stack[:n+1][n].rels[:0]
	}
	return nil
}

// takeHop binds hop frame i's next relationship and its far node and
// continues with the next step.
func (it *Iter) takeHop(i int) error {
	f := &it.stack[i]
	c, pi, si, preBound := f.rels[f.pos-1], f.part, f.step, f.preBound
	m := it.m
	if m.Stats != nil {
		m.Stats.RelVisits++
	}
	pp := &it.plans[pi]
	st := pp.steps[si]
	rp := pp.part.Rels[st.rel]
	ok, err := it.relSatisfies(c.rid, rp, &pp.relSyms[st.rel])
	if err != nil || !ok {
		return err
	}
	if rp.Var != "" && !preBound {
		it.bind(rp.Slot, value.Rel{ID: int64(c.rid)})
	}
	// Pushed WHERE conjuncts over the relationship slot prune before the
	// far endpoint is even considered (same contract as the node
	// predicates in nodeSatisfies).
	if !it.naive && rp.Var != "" && len(m.RelPreds) > 0 {
		for _, p := range m.RelPreds[rp] {
			tri, err := m.Ev.EvalBool(p, it.row)
			if err == nil && tri != value.True {
				return nil
			}
		}
	}
	if ok, err = it.endNode(pp.part.Nodes[st.to], &pp.nodeSyms[st.to], c.end); err != nil || !ok {
		return err
	}
	it.nodes[pi][st.to] = c.end
	if pp.part.Var != "" {
		it.rels[pi][st.rel] = append(it.rels[pi][st.rel][:0], c.rid)
	}
	return it.enterStep(pi, si+1)
}

// pushLevel pushes level depth of a variable-length step's search at
// node at: its stop entry when depth reaches the minimum hop count,
// then the relationships that extend the path, unless depth is the
// maximum. Every level evaluates the pattern against the bindings the
// step was entered with.
func (it *Iter) pushLevel(f frame, at graph.NodeID, depth int) {
	st := it.plans[f.part].steps[f.step]
	rp := it.plans[f.part].part.Rels[st.rel]
	minHops := rp.MinHops
	if minHops < 0 {
		minHops = 1
	}
	f.kind, f.at, f.depth, f.pos = varFrame, at, depth, 0
	if depth >= minHops {
		f.pos = -1
	}
	if rp.MaxHops < 0 || depth < rp.MaxHops {
		f.rels = it.m.relCandidates(it.spare(), rp, at, nil, st.reversed)
	}
	it.push(f)
}

// takeVarHop extends var frame i's path by its next relationship and
// pushes the level beyond it. Relationships are unique within a path in
// both modes, which guarantees termination; in Isomorphism mode they
// are also unique clause-wide (see used).
func (it *Iter) takeVarHop(i int) error {
	f := &it.stack[i]
	c := f.rels[f.pos-1]
	if it.m.Stats != nil {
		it.m.Stats.RelVisits++
	}
	for j := i - f.depth; j < i; j++ {
		if a := &it.stack[j]; a.rels[a.pos-1].rid == c.rid {
			return nil
		}
	}
	pp := &it.plans[f.part]
	rel := pp.steps[f.step].rel
	ok, err := it.relSatisfies(c.rid, pp.part.Rels[rel], &pp.relSyms[rel])
	if err != nil || !ok {
		return err
	}
	it.pushLevel(frame{part: f.part, step: f.step}, c.end, f.depth+1)
	return nil
}

// takeEnd ends var frame i's path at its node: it binds the path's
// relationships (in written order, whichever way the walk ran), checks
// the far node pattern and continues with the next step.
func (it *Iter) takeEnd(i int) error {
	f := &it.stack[i]
	pi, si, at := f.part, f.step, f.at
	pp := &it.plans[pi]
	st := pp.steps[si]
	rp := pp.part.Rels[st.rel]
	path := it.rels[pi][st.rel][:0]
	for j := i - f.depth; j < i; j++ {
		a := &it.stack[j]
		path = append(path, a.rels[a.pos-1].rid)
	}
	if st.reversed {
		slices.Reverse(path)
	}
	it.rels[pi][st.rel] = path
	if rp.Var != "" {
		lst := make(value.List, len(path))
		for k, rid := range path {
			lst[k] = value.Rel{ID: int64(rid)}
		}
		it.bind(rp.Slot, lst)
	}
	ok, err := it.endNode(pp.part.Nodes[st.to], &pp.nodeSyms[st.to], at)
	if err != nil || !ok {
		return err
	}
	it.nodes[pi][st.to] = at
	return it.enterStep(pi, si+1)
}

// relSatisfies checks a relationship candidate against the taken ones
// (in Isomorphism mode), the pattern's types and its inline properties.
func (it *Iter) relSatisfies(rid graph.RelID, rp *ast.RelPattern, ss *slotSyms) (bool, error) {
	if it.m.Mode == Isomorphism && it.used(rid) {
		return false, nil
	}
	r := it.m.Graph.Rel(rid)
	if r == nil || !typeMatches(r, ss) {
		return false, nil
	}
	return it.propsSatisfy(r.Props, rp.Props, ss.keys)
}

// endNode checks a hop's far endpoint against its node pattern. When
// the pattern's variable is already bound, it must hold that node.
func (it *Iter) endNode(np *ast.NodePattern, ns *slotSyms, end graph.NodeID) (bool, error) {
	if np.Var != "" {
		if v := it.row[np.Slot]; v != nil {
			id, ok, err := asNode(np, v)
			if err != nil || !ok || id != end {
				return false, err
			}
		}
	}
	return it.nodeSatisfies(end, np, ns)
}

// asNode reads a node pattern variable's pre-bound value: null matches
// no node, and any other non-node is an error.
func asNode(np *ast.NodePattern, v value.Value) (graph.NodeID, bool, error) {
	nv, isNode := v.(value.Node)
	if !isNode {
		if value.IsNull(v) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("variable `%s` is bound to %s, expected Node", np.Var, v.Kind())
	}
	return graph.NodeID(nv.ID), true, nil
}

// emit counts a complete match and, when it passes the Filter, passes
// the live row to Next's sink.
func (it *Iter) emit() error {
	if it.m.Stats != nil {
		it.m.Stats.Emitted++
	}
	if it.Filter != nil {
		keep, err := it.Filter(it.row)
		if err != nil || !keep {
			return err
		}
	}
	it.sink(it.row)
	it.n++
	return nil
}

// path builds part pi's path value from its slot bindings. A
// variable-length slot contributes its whole relationship list; the
// path's nodes are the slot endpoints (intermediate node ids are
// recoverable from the relationships).
func (it *Iter) path(pi int) value.Path {
	p := value.Path{}
	for _, n := range it.nodes[pi] {
		p.Nodes = append(p.Nodes, int64(n))
	}
	for _, rs := range it.rels[pi] {
		for _, r := range rs {
			p.Rels = append(p.Rels, int64(r))
		}
	}
	return p
}

// nodeCandidates uses the label index when the pattern names labels.
func (m *Matcher) nodeCandidates(ns *slotSyms) []graph.NodeID {
	if ns.none {
		return nil
	}
	if len(ns.names) > 0 {
		// Use the most selective label.
		best := ns.names[0]
		for _, l := range ns.names[1:] {
			if m.Graph.NodeCountByLabelID(l) < m.Graph.NodeCountByLabelID(best) {
				best = l
			}
		}
		return m.Graph.NodeIDsByLabelID(best)
	}
	return m.Graph.NodeIDs()
}

// seekCandidates resolves an index seek for one driving record: it
// evaluates the seek value against row — for a seek from the inline
// property map, only the seek key's entry — and returns the matching
// index bucket in ascending id order. The second result is false when
// the seek cannot be executed — the value expression errored (errors
// must surface, or stay silent, exactly as on the scan path, so the
// caller falls back to the label scan) or the index has vanished. A
// null seek value returns an empty candidate set: `prop = null` is
// never true, and an inline `{prop: null}` entry matches no stored
// property.
func (m *Matcher) seekCandidates(seek *seekPlan, np *ast.NodePattern, row []value.Value) ([]graph.NodeID, bool) {
	val := seek.val
	if seek.fromProps {
		ml := np.Props.(*ast.MapLit)
		val = ml.Vals[lastKey(ml.Keys, seek.prop)]
	}
	v, err := m.Ev.Eval(val, row)
	if err != nil {
		return nil, false
	}
	if value.IsNull(v) {
		return nil, true
	}
	if !m.Graph.HasIndex(seek.label, seek.prop) {
		return nil, false
	}
	return m.Graph.NodeIDsByProp(seek.label, seek.prop, v), true
}

// nodeSatisfies checks a node against a node pattern's labels and
// inline properties, binds the pattern's variable to it unless it is
// already bound, and then (unless naive) checks the pushed WHERE
// conjuncts over the slot. A binding made here stays on the trail
// whatever the outcome; the frame that took the candidate unwinds it.
func (it *Iter) nodeSatisfies(id graph.NodeID, np *ast.NodePattern, ns *slotSyms) (bool, error) {
	m := it.m
	n := m.Graph.Node(id)
	if n == nil || ns.none {
		return false, nil
	}
	for _, l := range ns.names {
		if !n.Labels.Has(l) {
			return false, nil
		}
	}
	ok, err := it.propsSatisfy(n.Props, np.Props, ns.keys)
	if err != nil || !ok || np.Var == "" {
		return ok, err
	}
	if it.row[np.Slot] == nil {
		it.bind(np.Slot, value.Node{ID: int64(id)})
	}
	// Pushed WHERE conjuncts over this slot alone prune the candidate
	// before any expansion happens. A conjunct that is false or null
	// here makes the full WHERE non-true on every completion, so
	// pruning is invisible; evaluation errors defer to the consumer's
	// full WHERE over complete rows.
	if !it.naive && len(m.NodePreds) > 0 {
		for _, p := range m.NodePreds[np] {
			tri, err := m.Ev.EvalBool(p, it.row)
			if err == nil && tri != value.True {
				return false, nil
			}
		}
	}
	return true, nil
}

// propsSatisfy checks a pattern's inline properties against stored
// properties with ternary equality: every entry must compare True. A
// map literal is compared entry by entry, with no map built: all its
// values are evaluated first, in written order, so an error surfaces
// as it does when the map is built, and a repeated key counts once, at
// its last value. keys are the literal's resolved keys. A parameter map
// goes through EvalPropMap, its keys looked up by name.
func (it *Iter) propsSatisfy(stored graph.Props, props ast.Expr, keys []graph.SymID) (bool, error) {
	ml, isLit := props.(*ast.MapLit)
	if !isLit {
		if props == nil {
			return true, nil
		}
		want, err := it.m.Ev.EvalPropMap(props, it.row)
		if err != nil {
			return false, err
		}
		for k, wv := range want {
			id, ok := it.m.Graph.Sym(k)
			if !ok {
				id = noSym
			}
			if !propEquals(stored, id, wv) {
				return false, nil
			}
		}
		return true, nil
	}
	vals := it.vals[:0]
	for _, e := range ml.Vals {
		v, err := it.m.Ev.Eval(e, it.row)
		if err != nil {
			return false, err
		}
		vals = append(vals, v)
	}
	it.vals = vals
	for i, k := range ml.Keys {
		if lastKey(ml.Keys, k) == i && !propEquals(stored, keys[i], vals[i]) {
			return false, nil
		}
	}
	return true, nil
}

// propEquals reports whether stored property k, null when absent,
// compares True to want.
func propEquals(stored graph.Props, k graph.SymID, want value.Value) bool {
	sv, ok := stored.Get(k)
	if !ok {
		sv = value.NullValue
	}
	return value.Equal(sv, want) == value.True
}

// lastKey returns the index of key's last entry in keys: the entry a
// map literal keeps when the key repeats.
func lastKey(keys []string, key string) int {
	for i := len(keys) - 1; i >= 0; i-- {
		if keys[i] == key {
			return i
		}
	}
	return -1
}

type relCandidate struct {
	rid graph.RelID
	end graph.NodeID
}

// relCandidates appends to out the (relationship, far-endpoint) pairs
// consistent with the pattern's direction, starting at node `at`;
// reversed flips the direction for right-to-left traversal.
func (m *Matcher) relCandidates(out []relCandidate, rp *ast.RelPattern, at graph.NodeID, preBound *graph.RelID, reversed bool) []relCandidate {
	add := func(rid graph.RelID, end graph.NodeID) {
		if preBound != nil && rid != *preBound {
			return
		}
		out = append(out, relCandidate{rid: rid, end: end})
	}
	dir := effectiveDir(rp.Direction, reversed)
	if dir == ast.DirOut || dir == ast.DirBoth {
		for _, rid := range m.Graph.Outgoing(at) {
			add(rid, m.Graph.Rel(rid).Tgt)
		}
	}
	if dir == ast.DirIn || dir == ast.DirBoth {
		for _, rid := range m.Graph.Incoming(at) {
			r := m.Graph.Rel(rid)
			// A self-loop was already produced by the outgoing scan in
			// DirBoth mode.
			if dir == ast.DirBoth && r.Src == r.Tgt {
				continue
			}
			add(rid, r.Src)
		}
	}
	return out
}

// typeMatches reports whether r has one of the slot's types (any type
// when the pattern names none).
func typeMatches(r *graph.Rel, ss *slotSyms) bool {
	if len(ss.names) == 0 {
		return !ss.none
	}
	for _, t := range ss.names {
		if r.Type == t {
			return true
		}
	}
	return false
}

// PatternVariables lists the variables a pattern tuple would bind, in
// the order CREATE and MERGE bind them: per part, the path variable,
// then node and relationship variables interleaved left to right.
func PatternVariables(parts []*ast.PatternPart) []string {
	var out []string
	for _, part := range parts {
		eachVar(part, func(name string, _ int) {
			if !slices.Contains(out, name) {
				out = append(out, name)
			}
		})
	}
	return out
}

// eachVar calls f with the name and slot of each variable part
// declares, in PatternVariables order.
func eachVar(part *ast.PatternPart, f func(name string, slot int)) {
	if part.Var != "" {
		f(part.Var, part.Slot)
	}
	for i, np := range part.Nodes {
		if np.Var != "" {
			f(np.Var, np.Slot)
		}
		if i < len(part.Rels) && part.Rels[i].Var != "" {
			f(part.Rels[i].Var, part.Rels[i].Slot)
		}
	}
}
