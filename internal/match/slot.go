package match

import (
	"slices"
	"sync/atomic"

	"repro/internal/ast"
)

// PlanSlot holds the latest plan of one pattern tuple. The engine's
// statement cache gives every MATCH and MERGE pattern of a cached
// statement its own slot, so every execution of that text — any
// session, any parallel worker, any driving record — reads one plan,
// and a plan lives exactly as long as its statement. A Matcher given no
// slot makes a private one on first use.
//
// The slot keeps one entry: the plan plus the stamps it is valid under.
// A consult for another pattern or another set of bound slots replans
// and replaces the entry. A changed index epoch replans too: a new
// index can enable a seek anchor (and a drop must disable one) without
// any cardinality drift, and a changed symbol table re-resolves the
// pattern's labels, types and keys. A moved graph version recomputes the anchor
// estimates (O(1) statistic reads per node slot) and keeps the plan
// unless they drifted materially, so a legacy MERGE mutating the graph
// between records keeps its plan while a skewed bulk load replans.
//
// A PlanSlot is safe for concurrent use. Entries are published
// atomically and never change afterwards, apart from the atomic version
// they were last validated at. Racing consults are benign: plans only
// order enumeration, so at worst one replans twice or keeps a plan one
// consult longer, never returns a wrong result.
type PlanSlot struct {
	cur    atomic.Pointer[slotEntry]
	counts *PlanCounts
}

// NewPlanSlot returns an empty slot whose consults are counted in
// counts (nil: not counted).
func NewPlanSlot(counts *PlanCounts) *PlanSlot { return &PlanSlot{counts: counts} }

// Filled reports whether the slot holds a plan.
func (s *PlanSlot) Filled() bool { return s.cur.Load() != nil }

// slotEntry is one plan with its validity stamps.
type slotEntry struct {
	parts    []*ast.PatternPart
	bound    []int // the slots bound on entry (Matcher.Bound)
	plans    []partPlan
	est      []float64 // anchor estimates the plan was built from
	idxEpoch int64
	symStamp uint64 // symbol table the plans' names were resolved in

	ver atomic.Int64 // graph version the plan was last validated at
}

// fits reports whether e is the plan of parts under the bound slots.
func (e *slotEntry) fits(parts []*ast.PatternPart, bound []int) bool {
	return e != nil && len(e.parts) == len(parts) && (len(parts) == 0 || e.parts[0] == parts[0]) &&
		slices.Equal(e.bound, bound)
}

// plan returns a valid plan for parts under m's bound slots against m's
// graph at version ver, replanning and publishing a replacement entry
// when the current one does not fit or is stale.
func (s *PlanSlot) plan(m *Matcher, parts []*ast.PatternPart, ver int64) *slotEntry {
	e := s.cur.Load()
	outcome := miss
	if e.fits(parts, m.Bound) {
		outcome = invalidation
		if e.idxEpoch == m.Graph.IndexEpoch() && e.symStamp == m.Graph.SymStamp() &&
			(e.ver.Load() == ver || !estimatesDrifted(e.est, m.estimateFingerprint(parts, m.entryBound()))) {
			outcome = hit
		}
	}
	if s.counts != nil {
		s.counts[outcome].Add(1)
	}
	if outcome == hit {
		if e.ver.Load() != ver {
			e.ver.Store(ver)
		}
		return e
	}
	bound := m.entryBound()
	e = &slotEntry{parts: parts, bound: m.Bound, idxEpoch: m.Graph.IndexEpoch(), symStamp: m.Graph.SymStamp()}
	e.est = m.estimateFingerprint(parts, bound)
	e.plans = m.planParts(parts, bound) // mutates bound; fingerprint first
	e.ver.Store(ver)
	s.cur.Store(e)
	return e
}

// Outcomes of a slot consult, indexing PlanCounts.
const (
	hit = iota
	miss
	invalidation
)

// PlanCounts counts the slot consults of one engine's statements.
type PlanCounts [3]atomic.Int64

// PlanStats is a point-in-time snapshot of an engine's plan slots.
type PlanStats struct {
	// Hits counts consults answered by the slot's plan, including plans
	// revalidated against drifted-but-tolerable statistics.
	Hits int64
	// Misses counts consults that planned because the slot was empty or
	// held the plan of another pattern or bound-slot set.
	Misses int64
	// Invalidations counts consults that found the slot's plan stale —
	// the statistics drifted beyond tolerance or the index epoch
	// changed — and replanned.
	Invalidations int64
	// Entries counts the filled slots of cached statements.
	Entries int
}

// Stats returns the counters with the given entry count.
func (c *PlanCounts) Stats(entries int) PlanStats {
	return PlanStats{Hits: c[hit].Load(), Misses: c[miss].Load(), Invalidations: c[invalidation].Load(), Entries: entries}
}
