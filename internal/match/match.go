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
// relies on for reproducible legacy-mode runs; both executors share
// this planner, so they agree bit for bit.
package match

import (
	"errors"
	"fmt"

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
	// Emitted counts environments yielded to the consumer.
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
	// are ignored. This naive walk is also the fallback Stream takes
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

	// Cache, when non-nil, is the engine's shared cross-statement plan
	// cache: plans built by this matcher are published there, and a
	// per-matcher (L1) miss consults it before planning from scratch,
	// so sessions running the same query text share one plan. Sound
	// because the engine's statement cache shares one parsed AST per
	// query text (see PlanCache).
	Cache *PlanCache

	// Plan cache: Stream is called once per driving-table record, but
	// the plan depends only on the pattern, the set of bound column
	// names and the graph's statistics. A cached plan survives
	// structural version bumps as long as the anchor estimates have not
	// drifted materially (see plansFor and estimateFingerprint) — so a
	// legacy MERGE mutating the graph between records keeps its plan —
	// and is re-planned the moment a skewed load moves the statistics.
	cachedPlans   []partPlan
	cacheParts    *ast.PatternPart
	cacheN        int
	cacheBound    []string
	cacheVer      int64
	cacheEst      []float64
	cacheIdxEpoch int64

	// runNaive, set per Stream call, forces the seed's written-order
	// walk and disables all pushed-predicate pruning for rows where any
	// deviation could change which runtime error surfaces: a pattern
	// variable bound to a value of the wrong kind, or an inline
	// property expression that can error (see naiveRequired).
	runNaive bool
}

// SetPushdown installs the pushed predicates of a classified WHERE.
func (m *Matcher) SetPushdown(pd *Pushdown) {
	if pd == nil {
		m.NodePreds, m.RelPreds, m.PrePreds = nil, nil, nil
		return
	}
	m.NodePreds, m.RelPreds, m.PrePreds = pd.Node, pd.Rel, pd.Pre
}

// ErrStop, returned from a Stream yield callback, terminates enumeration
// early without error: Stream swallows it and returns nil.
var ErrStop = errors.New("match: stop enumeration")

// Stream enumerates all extensions of env that satisfy all pattern
// parts, invoking yield for each one as soon as it is found — no
// intermediate collection is built, so a consumer that stops early (via
// ErrStop) prunes the remaining search space. Variables already bound in
// env constrain the match; unbound pattern variables are bound in the
// yielded environments. Named paths bind their path variable to a
// value.Path.
//
// The yielded environment shares structure with env; consumers that
// retain it across yields must copy it (the engine's operators do so by
// normalizing rows into their own column sets).
func (m *Matcher) Stream(parts []*ast.PatternPart, env expr.Env, yield func(expr.Env) error) error {
	m.runNaive = m.DisablePlan || m.naiveRequired(parts, env)
	var plans []partPlan
	if m.runNaive {
		// The seed's walk, bit for bit: written order, first-node
		// anchors, no pruning — so every runtime error (mistyped
		// binding, erroring property expression) surfaces exactly when
		// and where it always did.
		plans = naivePlans(parts)
	} else {
		// Pre-predicates reference only already-bound variables: when
		// one is definitively not true, no extension of env can pass
		// the full WHERE, so enumeration is skipped wholesale. Errors
		// defer to the consumer's WHERE evaluation over complete rows.
		for _, p := range m.PrePreds {
			tri, err := m.Ev.EvalBool(p, env)
			if err == nil && tri != value.True {
				return nil
			}
		}
		plans = m.plansFor(parts, env)
	}
	used := make(map[graph.RelID]bool)
	err := m.matchParts(plans, 0, env, used, func(e expr.Env) error {
		if m.Stats != nil {
			m.Stats.Emitted++
		}
		return yield(e)
	})
	if errors.Is(err, ErrStop) {
		return nil
	}
	return err
}

// Match enumerates all matches eagerly, collecting them into a slice,
// for callers that need the full set: the MERGE clauses decide between
// matching and creating per record.
func (m *Matcher) Match(parts []*ast.PatternPart, env expr.Env) ([]expr.Env, error) {
	var results []expr.Env
	err := m.Stream(parts, env, func(e expr.Env) error {
		results = append(results, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// MatchExists reports whether at least one match exists (early exit).
func (m *Matcher) MatchExists(parts []*ast.PatternPart, env expr.Env) (bool, error) {
	found := false
	err := m.Stream(parts, env, func(expr.Env) error {
		found = true
		return ErrStop
	})
	if err != nil {
		return false, err
	}
	return found, nil
}

// plansFor returns the execution plan for parts under env's bound
// variables, reusing the cached plan when the pattern and the bound
// column set are unchanged since the last call — the common case for an
// operator streaming many records. Cache validity is statistics-based,
// not version-based: when the graph's structural version has moved, the
// anchor estimates are recomputed (O(1) statistic reads per node slot)
// and the plan is kept unless they drifted materially — so interleaved
// writes (a legacy MERGE mutating between records) do not force a
// replan per record, while a skewed bulk load that moves the label
// cardinalities does invalidate the stale anchor choice.
func (m *Matcher) plansFor(parts []*ast.PatternPart, env expr.Env) []partPlan {
	newBound := func() map[string]bool {
		bound := make(map[string]bool, len(env))
		for k := range env {
			bound[k] = true
		}
		return bound
	}
	if m.ForceAnchor != nil {
		// Test hooks may be stateful; never cache around them.
		return m.planParts(parts, newBound())
	}
	var key *ast.PatternPart
	if len(parts) > 0 {
		key = parts[0]
	}
	if m.cachedPlans != nil && m.cacheParts == key && m.cacheN == len(parts) &&
		len(m.cacheBound) == len(env) && m.cacheIdxEpoch == m.Graph.IndexEpoch() {
		// The index-epoch check invalidates the cache outright when an
		// index was created or dropped since the plan was built: a new
		// index may enable a seek anchor (and a drop must disable one)
		// even when the cardinality estimates have not drifted.
		hit := true
		for _, name := range m.cacheBound {
			if _, ok := env[name]; !ok {
				hit = false
				break
			}
		}
		if hit {
			if m.cacheVer == m.Graph.Version() {
				return m.cachedPlans
			}
			// The graph changed structurally: re-validate the plan
			// against the current statistics instead of discarding it.
			fp := m.estimateFingerprint(parts, newBound())
			if !estimatesDrifted(m.cacheEst, fp) {
				m.cacheVer = m.Graph.Version()
				return m.cachedPlans
			}
		}
	}
	names := make([]string, 0, len(env))
	for k := range env {
		names = append(names, k)
	}
	// L1 miss: consult the engine's shared cross-statement cache, then
	// plan from scratch. Either way the result is installed in the L1
	// fields, so per-record lookups for the rest of this operator's
	// life never touch the shared mutex. DisablePlan matchers skip the
	// shared cache: their trivial written-order plans are cheaper to
	// rebuild than to share, and keying them would double every entry.
	var (
		shared   *PlanCache
		cacheKey planCacheKey
	)
	if m.Cache != nil && !m.DisablePlan {
		shared = m.Cache
		cacheKey = planCacheKey{part0: key, n: len(parts), bound: boundKey(names), mode: m.Mode}
	}
	ver, idxEpoch := m.Graph.Version(), m.Graph.IndexEpoch()
	var plans []partPlan
	var fp []float64
	if shared != nil {
		plans = shared.lookup(m, cacheKey, parts, newBound())
	}
	if plans == nil {
		bound := newBound()
		fp = m.estimateFingerprint(parts, bound)
		plans = m.planParts(parts, bound) // mutates bound; fingerprint first
		if shared != nil {
			shared.store(cacheKey, plans, fp, ver, idxEpoch)
		}
	} else {
		fp = m.estimateFingerprint(parts, newBound())
	}
	m.cachedPlans, m.cacheParts, m.cacheN = plans, key, len(parts)
	m.cacheBound, m.cacheVer, m.cacheEst = names, ver, fp
	m.cacheIdxEpoch = idxEpoch
	return plans
}

func (m *Matcher) matchParts(plans []partPlan, i int, env expr.Env, used map[graph.RelID]bool, yield func(expr.Env) error) error {
	if i == len(plans) {
		return yield(env)
	}
	return m.matchPart(plans[i], env, used, func(e expr.Env) error {
		return m.matchParts(plans, i+1, e, used, yield)
	})
}

// matchPart enumerates one path pattern following its plan: anchor
// candidates first, then the planned expansion steps, which may walk the
// written pattern in both directions. Slot bindings are tracked by node
// and relationship position so path values come out in written
// left-to-right order regardless of the walk.
func (m *Matcher) matchPart(pp partPlan, env expr.Env, used map[graph.RelID]bool, yield func(expr.Env) error) error {
	return m.matchPartFrom(pp, nil, env, used, yield)
}

// matchPartFrom is matchPart with an optional explicit anchor candidate
// list: non-nil anchors restrict the anchor slot to that subset (the
// morsel-parallel entry point, see StreamAnchors); nil enumerates the
// planned candidates as usual.
func (m *Matcher) matchPartFrom(pp partPlan, anchors []graph.NodeID, env expr.Env, used map[graph.RelID]bool, yield func(expr.Env) error) error {
	part := pp.part
	nodeIDs := make([]graph.NodeID, len(part.Nodes))
	relIDs := make([][]graph.RelID, len(part.Rels))

	var walk func(si int, env expr.Env) error
	walk = func(si int, env expr.Env) error {
		if si == len(pp.steps) {
			out := env
			if part.Var != "" {
				p := value.Path{}
				for _, n := range nodeIDs {
					p.Nodes = append(p.Nodes, int64(n))
				}
				for _, rs := range relIDs {
					// Var-length slots contribute their whole traversal (in
					// written order); for path values we record only slot
					// endpoint nodes (intermediate node ids are recoverable
					// from the relationships).
					for _, r := range rs {
						p.Rels = append(p.Rels, int64(r))
					}
				}
				out = env.With(part.Var, p)
			}
			return yield(out)
		}
		st := pp.steps[si]
		rp := part.Rels[st.rel]
		np := part.Nodes[st.to]
		at := nodeIDs[st.from]
		if rp.VarLength {
			return m.expandVarLength(rp, np, at, st.reversed, env, used, func(relList []graph.RelID, end graph.NodeID, env2 expr.Env) error {
				nodeIDs[st.to] = end
				relIDs[st.rel] = relList
				return walk(si+1, env2)
			})
		}
		return m.expandRel(rp, np, at, st.reversed, env, used, func(rid graph.RelID, end graph.NodeID, env2 expr.Env) error {
			nodeIDs[st.to] = end
			if part.Var != "" {
				relIDs[st.rel] = []graph.RelID{rid}
			}
			return walk(si+1, env2)
		})
	}

	anchorFn := func(n graph.NodeID, env2 expr.Env) error {
		nodeIDs[pp.anchor] = n
		return walk(0, env2)
	}
	if anchors != nil {
		return m.matchNodeFrom(part.Nodes[pp.anchor], anchors, env, anchorFn)
	}
	return m.matchNode(part.Nodes[pp.anchor], pp.seek, env, anchorFn)
}

// matchNode enumerates candidate nodes for a node pattern, extending
// env. A non-nil seek narrows the candidates to one bucket of a
// property index (see seekCandidates); the full per-candidate checks
// still run, so the seek is semantically invisible.
func (m *Matcher) matchNode(np *ast.NodePattern, seek *seekPlan, env expr.Env, yield func(graph.NodeID, expr.Env) error) error {
	// Pre-bound variable: check, do not enumerate.
	if np.Var != "" {
		if bound, ok := env[np.Var]; ok {
			nv, isNode := bound.(value.Node)
			if !isNode {
				if value.IsNull(bound) {
					return nil // null never matches a node pattern
				}
				return fmt.Errorf("variable `%s` is bound to %s, expected Node", np.Var, bound.Kind())
			}
			id := graph.NodeID(nv.ID)
			ok2, err := m.nodeSatisfies(id, np, env)
			if err != nil || !ok2 {
				return err
			}
			return yield(id, env)
		}
	}
	var candidates []graph.NodeID
	seeked := false
	if seek != nil {
		candidates, seeked = m.seekCandidates(seek, np, env)
	}
	if !seeked {
		candidates = m.nodeCandidates(np)
	}
	return m.matchNodeFrom(np, candidates, env, yield)
}

// matchNodeFrom runs matchNode's per-candidate checks over an explicit
// candidate list.
func (m *Matcher) matchNodeFrom(np *ast.NodePattern, candidates []graph.NodeID, env expr.Env, yield func(graph.NodeID, expr.Env) error) error {
	for _, id := range candidates {
		if m.Stats != nil {
			m.Stats.NodeVisits++
		}
		ok, err := m.nodeSatisfies(id, np, env)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		env2 := env
		if np.Var != "" {
			env2 = env.With(np.Var, value.Node{ID: int64(id)})
		}
		if err := yield(id, env2); err != nil {
			return err
		}
	}
	return nil
}

// nodeCandidates uses the label index when the pattern names labels.
func (m *Matcher) nodeCandidates(np *ast.NodePattern) []graph.NodeID {
	if len(np.Labels) > 0 {
		// Use the most selective label.
		best := m.Graph.NodeIDsByLabel(np.Labels[0])
		for _, l := range np.Labels[1:] {
			ids := m.Graph.NodeIDsByLabel(l)
			if len(ids) < len(best) {
				best = ids
			}
		}
		return best
	}
	return m.Graph.NodeIDs()
}

// seekCandidates resolves an index seek for one driving record: it
// evaluates the seek value against env and returns the matching index
// bucket in ascending id order. The second result is false when the
// seek cannot be executed — the value expression errored (errors must
// surface, or stay silent, exactly as on the scan path, so the caller
// falls back to the label scan) or the index has vanished. A null seek
// value returns an empty candidate set: `prop = null` is never true,
// and an inline `{prop: null}` entry matches no stored property.
func (m *Matcher) seekCandidates(seek *seekPlan, np *ast.NodePattern, env expr.Env) ([]graph.NodeID, bool) {
	var v value.Value
	if seek.fromProps {
		pm, err := m.Ev.EvalPropMap(np.Props, env)
		if err != nil {
			return nil, false
		}
		pv, ok := pm[seek.prop]
		if !ok {
			return nil, false
		}
		v = pv
	} else {
		ev, err := m.Ev.Eval(seek.val, env)
		if err != nil {
			return nil, false
		}
		v = ev
	}
	if value.IsNull(v) {
		return nil, true
	}
	if !m.Graph.HasIndex(seek.label, seek.prop) {
		return nil, false
	}
	return m.Graph.NodeIDsByProp(seek.label, seek.prop, v), true
}

func (m *Matcher) nodeSatisfies(id graph.NodeID, np *ast.NodePattern, env expr.Env) (bool, error) {
	n := m.Graph.Node(id)
	if n == nil {
		return false, nil
	}
	for _, l := range np.Labels {
		if !n.HasLabel(l) {
			return false, nil
		}
	}
	ok, err := m.propsSatisfy(n.Props, np.Props, env)
	if err != nil || !ok {
		return ok, err
	}
	// Pushed WHERE conjuncts over this slot alone prune the candidate
	// before any expansion happens. A conjunct that is false or null
	// here makes the full WHERE non-true on every completion, so
	// pruning is invisible; evaluation errors defer to the consumer's
	// full WHERE over complete rows.
	if !m.runNaive && np.Var != "" && len(m.NodePreds) > 0 {
		if preds := m.NodePreds[np]; len(preds) > 0 {
			e2 := env
			if _, bound := env[np.Var]; !bound {
				e2 = env.With(np.Var, value.Node{ID: int64(id)})
			}
			for _, p := range preds {
				tri, err := m.Ev.EvalBool(p, e2)
				if err == nil && tri != value.True {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// propsSatisfy checks a pattern property map against stored properties
// with ternary equality: every entry must compare True.
func (m *Matcher) propsSatisfy(stored map[string]value.Value, propsExpr ast.Expr, env expr.Env) (bool, error) {
	if propsExpr == nil {
		return true, nil
	}
	want, err := m.Ev.EvalPropMap(propsExpr, env)
	if err != nil {
		return false, err
	}
	for k, wv := range want {
		sv, ok := stored[k]
		if !ok {
			sv = value.NullValue
		}
		if value.Equal(sv, wv) != value.True {
			return false, nil
		}
	}
	return true, nil
}

// expandRel enumerates single-hop relationship candidates from node
// `at`; reversed means `at` is the written pattern's right endpoint and
// the pattern direction is flipped against the adjacency lists.
func (m *Matcher) expandRel(rp *ast.RelPattern, np *ast.NodePattern, at graph.NodeID, reversed bool, env expr.Env, used map[graph.RelID]bool, yield func(graph.RelID, graph.NodeID, expr.Env) error) error {
	// Pre-bound relationship variable restricts candidates to one.
	var preBound *graph.RelID
	if rp.Var != "" {
		if bound, ok := env[rp.Var]; ok {
			rv, isRel := bound.(value.Rel)
			if !isRel {
				if value.IsNull(bound) {
					return nil
				}
				return fmt.Errorf("variable `%s` is bound to %s, expected Relationship", rp.Var, bound.Kind())
			}
			id := graph.RelID(rv.ID)
			preBound = &id
		}
	}

	tryCandidate := func(rid graph.RelID, end graph.NodeID) error {
		if m.Stats != nil {
			m.Stats.RelVisits++
		}
		if m.Mode == Isomorphism && used[rid] {
			return nil
		}
		r := m.Graph.Rel(rid)
		if r == nil || !typeMatches(r, rp.Types) {
			return nil
		}
		ok, err := m.propsSatisfy(r.Props, rp.Props, env)
		if err != nil || !ok {
			return err
		}
		env2 := env
		if rp.Var != "" && preBound == nil {
			env2 = env.With(rp.Var, value.Rel{ID: int64(rid)})
		}
		// Pushed WHERE conjuncts over the relationship slot prune before
		// the far endpoint is even considered (same contract as the node
		// predicates in nodeSatisfies).
		if !m.runNaive && rp.Var != "" && len(m.RelPreds) > 0 {
			for _, p := range m.RelPreds[rp] {
				tri, err := m.Ev.EvalBool(p, env2)
				if err == nil && tri != value.True {
					return nil
				}
			}
		}
		// Check the far node pattern.
		return m.checkEndNode(np, end, env2, func(env3 expr.Env) error {
			used[rid] = true
			err := yield(rid, end, env3)
			delete(used, rid)
			return err
		})
	}

	candidates := m.relCandidates(rp, at, preBound, reversed)
	for _, c := range candidates {
		if err := tryCandidate(c.rid, c.end); err != nil {
			return err
		}
	}
	return nil
}

type relCandidate struct {
	rid graph.RelID
	end graph.NodeID
}

// relCandidates lists (relationship, far-endpoint) pairs consistent with
// the pattern's direction, starting at node `at`; reversed flips the
// direction for right-to-left traversal.
func (m *Matcher) relCandidates(rp *ast.RelPattern, at graph.NodeID, preBound *graph.RelID, reversed bool) []relCandidate {
	var out []relCandidate
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

func typeMatches(r *graph.Rel, types []string) bool {
	if len(types) == 0 {
		return true
	}
	for _, t := range types {
		if r.Type == t {
			return true
		}
	}
	return false
}

// checkEndNode validates the far endpoint against its node pattern,
// binding its variable if fresh.
func (m *Matcher) checkEndNode(np *ast.NodePattern, end graph.NodeID, env expr.Env, yield func(expr.Env) error) error {
	if np.Var != "" {
		if bound, ok := env[np.Var]; ok {
			nv, isNode := bound.(value.Node)
			if !isNode {
				if value.IsNull(bound) {
					return nil
				}
				return fmt.Errorf("variable `%s` is bound to %s, expected Node", np.Var, bound.Kind())
			}
			if graph.NodeID(nv.ID) != end {
				return nil
			}
			ok2, err := m.nodeSatisfies(end, np, env)
			if err != nil || !ok2 {
				return err
			}
			return yield(env)
		}
	}
	ok, err := m.nodeSatisfies(end, np, env)
	if err != nil || !ok {
		return err
	}
	if np.Var != "" {
		env = env.With(np.Var, value.Node{ID: int64(end)})
	}
	return yield(env)
}

// expandVarLength enumerates variable-length paths of rp's type starting
// at `at`, with hop count in [min, max]. Relationship uniqueness is
// enforced within the traversed path in both modes (guaranteeing
// termination); in Isomorphism mode the path's relationships additionally
// respect the clause-wide used set. With reversed set, `at` is the
// written pattern's right endpoint: traversal runs right to left, and
// the relationship list is flipped before use so bound list values and
// path values always read in written order.
func (m *Matcher) expandVarLength(rp *ast.RelPattern, np *ast.NodePattern, at graph.NodeID, reversed bool, env expr.Env, used map[graph.RelID]bool, yield func([]graph.RelID, graph.NodeID, expr.Env) error) error {
	minHops := rp.MinHops
	if minHops < 0 {
		minHops = 1
	}
	maxHops := rp.MaxHops // -1 = unbounded
	if rp.Var != "" {
		if _, ok := env[rp.Var]; ok {
			return fmt.Errorf("variable-length relationship variable `%s` cannot be pre-bound", rp.Var)
		}
	}

	inPath := make(map[graph.RelID]bool)
	var path []graph.RelID

	emit := func(end graph.NodeID) error {
		relsCopy := append([]graph.RelID(nil), path...)
		if reversed {
			// The traversal collected relationships right to left.
			for i, j := 0, len(relsCopy)-1; i < j; i, j = i+1, j-1 {
				relsCopy[i], relsCopy[j] = relsCopy[j], relsCopy[i]
			}
		}
		env2 := env
		if rp.Var != "" {
			lst := make(value.List, len(relsCopy))
			for i, rid := range relsCopy {
				lst[i] = value.Rel{ID: int64(rid)}
			}
			env2 = env.With(rp.Var, lst)
		}
		return m.checkEndNode(np, end, env2, func(env3 expr.Env) error {
			for _, rid := range relsCopy {
				used[rid] = true
			}
			err := yield(relsCopy, end, env3)
			for _, rid := range relsCopy {
				delete(used, rid)
			}
			return err
		})
	}

	var dfs func(cur graph.NodeID) error
	dfs = func(cur graph.NodeID) error {
		if len(path) >= minHops {
			if err := emit(cur); err != nil {
				return err
			}
		}
		if maxHops >= 0 && len(path) >= maxHops {
			return nil
		}
		for _, c := range m.relCandidates(rp, cur, nil, reversed) {
			if m.Stats != nil {
				m.Stats.RelVisits++
			}
			if inPath[c.rid] {
				continue
			}
			if m.Mode == Isomorphism && used[c.rid] {
				continue
			}
			r := m.Graph.Rel(c.rid)
			if r == nil || !typeMatches(r, rp.Types) {
				continue
			}
			ok, err := m.propsSatisfy(r.Props, rp.Props, env)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			inPath[c.rid] = true
			path = append(path, c.rid)
			err = dfs(c.end)
			path = path[:len(path)-1]
			delete(inPath, c.rid)
			if err != nil {
				return err
			}
		}
		return nil
	}
	return dfs(at)
}

// PatternVariables lists the variables a pattern tuple would bind, in
// first-appearance order: path variables, node variables, relationship
// variables.
func PatternVariables(parts []*ast.PatternPart) []string {
	var out []string
	seen := make(map[string]bool)
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, part := range parts {
		add(part.Var)
		for i, n := range part.Nodes {
			add(n.Var)
			if i < len(part.Rels) {
				add(part.Rels[i].Var)
			}
		}
	}
	return out
}
