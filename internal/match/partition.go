// Anchor partitioning for morsel-driven parallel matching.
//
// The planner anchors the first planned part at its most selective node
// slot and enumerates that slot's candidates in ascending id order; the
// rest of the search is a pure function of each anchor candidate (every
// frame of the Iter unwinds its bindings before its next candidate, and
// the relationships the search has taken live on its frames).
// Splitting the candidate list into contiguous chunks and enumerating
// each chunk independently therefore produces exactly the
// corresponding subsequences of the serial enumeration — which is what
// lets the executor fan anchor candidates out as morsels over a pinned
// immutable snapshot and gather the results back in morsel order,
// bit-identical to a serial run.
package match

import (
	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/value"
)

// AnchorPlan is a planned, partitionable pattern enumeration: the
// per-part plans plus the anchor candidate list of the first planned
// part. It is immutable after PlanAnchors and safe to share across
// worker matchers enumerating disjoint anchor subsets concurrently.
type AnchorPlan struct {
	plans   []partPlan
	anchors []graph.NodeID
}

// Anchors returns the anchor candidate list (ascending entity id). The
// caller partitions it; slices index the returned list directly.
func (ap *AnchorPlan) Anchors() []graph.NodeID { return ap.anchors }

// PlanAnchors plans parts for the matcher's bound slots and, when the
// enumeration is partitionable by anchor candidate, returns the shared
// plan plus the first planned part's candidate list. It returns
// ok=false — and the caller must enumerate serially — when any
// per-row dimension could differ from the build-time plan:
//
//   - the naive seed walk is (or could become) required: DisablePlan,
//     ForceAnchor test hooks, or naiveRequired on the seed row;
//   - the first part anchors on a pre-bound variable or an index seek
//     (both are evaluated per driving record, and a seek's bucket is
//     tiny anyway — nothing worth partitioning).
//
// The plan is computed against the current graph; callers must execute
// it on the same (immutable snapshot) graph.
func (m *Matcher) PlanAnchors(parts []*ast.PatternPart, row []value.Value) (*AnchorPlan, bool) {
	if m.DisablePlan || m.ForceAnchor != nil || len(parts) == 0 {
		return nil, false
	}
	if m.naiveRequired(parts, row) {
		return nil, false
	}
	plans := m.plansFor(parts)
	if len(plans) == 0 {
		return nil, false
	}
	p0 := plans[0]
	np := p0.part.Nodes[p0.anchor]
	if p0.seek != nil {
		return nil, false
	}
	if np.Var != "" && row[np.Slot] != nil {
		return nil, false
	}
	return &AnchorPlan{plans: plans, anchors: m.nodeCandidates(&p0.nodeSyms[p0.anchor])}, true
}

// Chunk returns the plan restricted to the anchor candidates
// Anchors()[lo:hi]. An Iter Reset with it yields exactly that chunk's
// contiguous subsequence of the serial enumeration. Each worker
// enumerates its chunks on its own Matcher (own Stats, with the
// planning matcher's pushdown installed), sharing the plan read-only.
func (ap *AnchorPlan) Chunk(lo, hi int) *AnchorPlan {
	return &AnchorPlan{plans: ap.plans, anchors: ap.anchors[lo:hi]}
}
