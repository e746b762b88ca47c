// Anchor partitioning for morsel-driven parallel matching.
//
// The planner anchors the first planned part at its most selective node
// slot and enumerates that slot's candidates in ascending id order; the
// rest of the search is a pure function of each anchor candidate (the
// isomorphism `used` set is fully backtracked between candidates, see
// expandRel/expandVarLength). Splitting the candidate list into
// contiguous chunks and enumerating each chunk independently therefore
// produces exactly the corresponding subsequences of the serial
// enumeration — which is what lets the executor fan anchor candidates
// out as morsels over a pinned immutable snapshot and gather the
// results back in morsel order, bit-identical to a serial run.
package match

import (
	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/graph"
)

// AnchorPlan is a planned, partitionable pattern enumeration: the
// per-part plans plus the anchor candidate list of the first planned
// part. It is immutable after PlanAnchors and safe to share across
// worker matchers enumerating disjoint anchor subsets concurrently.
type AnchorPlan struct {
	parts   []*ast.PatternPart
	plans   []partPlan
	anchors []graph.NodeID
}

// Anchors returns the anchor candidate list (ascending entity id). The
// caller partitions it; slices index the returned list directly.
func (ap *AnchorPlan) Anchors() []graph.NodeID { return ap.anchors }

// PlanAnchors plans parts for env's bound variables and, when the
// enumeration is partitionable by anchor candidate, returns the shared
// plan plus the first planned part's candidate list. It returns
// ok=false — and the caller must fall back to serial Stream — when any
// per-row dimension could differ from the build-time plan:
//
//   - the naive seed walk is (or could become) required: DisablePlan,
//     ForceAnchor test hooks, or naiveRequired on the seed env;
//   - the first part anchors on a pre-bound variable or an index seek
//     (both are evaluated per driving record, and a seek's bucket is
//     tiny anyway — nothing worth partitioning).
//
// The plan is computed against the current graph; callers must execute
// it on the same (immutable snapshot) graph.
func (m *Matcher) PlanAnchors(parts []*ast.PatternPart, env expr.Env) (*AnchorPlan, bool) {
	if m.DisablePlan || m.ForceAnchor != nil || len(parts) == 0 {
		return nil, false
	}
	if m.naiveRequired(parts, env) {
		return nil, false
	}
	plans := m.plansFor(parts, env)
	if len(plans) == 0 {
		return nil, false
	}
	p0 := plans[0]
	np := p0.part.Nodes[p0.anchor]
	if p0.seek != nil {
		return nil, false
	}
	if np.Var != "" {
		if _, bound := env[np.Var]; bound {
			return nil, false
		}
	}
	return &AnchorPlan{parts: parts, plans: plans, anchors: m.nodeCandidates(np)}, true
}

// StreamAnchors enumerates matches exactly like Stream, except that the
// first planned part's anchor candidates are restricted to the given
// subset (a sub-slice of ap.Anchors()). The receiving matcher performs
// the enumeration — workers each use their own Matcher (own Stats), with
// the same pushdown installed as the planning matcher had — while the
// AnchorPlan itself is shared read-only.
func (m *Matcher) StreamAnchors(ap *AnchorPlan, anchors []graph.NodeID, env expr.Env, yield func(expr.Env) error) error {
	m.runNaive = false
	// Each morsel re-checks the pre-predicates (cheap, and the result is
	// identical for every morsel of one statement).
	if m.prePredsExclude(env) {
		return nil
	}
	return m.enumerate(ap.plans, anchors, env, yield)
}

// NewAnchorCursor is NewCursor over StreamAnchors: batched pulling of
// the matches whose first-part anchor lies in the given candidate
// subset. See NewCursor for the max/filter contract.
func (m *Matcher) NewAnchorCursor(ap *AnchorPlan, anchors []graph.NodeID, env expr.Env, max int, filter func(expr.Env) (bool, error)) *Cursor {
	return newCursor(func(yield func(expr.Env) error) error {
		return m.StreamAnchors(ap, anchors, env, yield)
	}, max, filter)
}
