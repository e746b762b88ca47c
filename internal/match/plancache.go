package match

import (
	"container/list"
	"sort"
	"strings"
	"sync"

	"repro/internal/ast"
)

// PlanCache is a shared, cross-statement (and cross-session) cache of
// match plans. The per-matcher cache fields on Matcher amortize
// planning across the driving records of ONE operator; a PlanCache
// amortizes it across statements, sessions and connections: every
// matcher of the same engine points at the same PlanCache, so a million
// identical parameterized point lookups — from one session or a
// thousand — plan once.
//
// Entries are keyed on the pattern's AST identity, the bound-column
// set and the matching mode. AST identity works cross-session because
// the engine's statement cache (internal/core) shares one parsed AST
// per distinct query text: the same query text yields pointer-equal
// pattern parts, and a pattern part determines its statement — and
// therefore the WHERE pushdown that feeds the planner — uniquely.
//
// Validity is statistics-based, exactly like the per-matcher cache: an
// entry remembers the graph version, the index epoch and the anchor
// estimate fingerprint it was planned under. A lookup against a graph
// whose version moved re-validates the fingerprint (O(1) statistic
// reads per node slot) and keeps the plan unless the estimates drifted
// materially; a changed index epoch (CREATE/DROP INDEX) invalidates
// outright, because a new index can enable a seek anchor (and a drop
// must disable one) without any cardinality drift.
//
// A PlanCache is safe for concurrent use. Matchers consult it only on
// a per-matcher (L1) miss, so steady-state streaming never touches the
// shared mutex.
type PlanCache struct {
	mu      sync.Mutex
	entries map[planCacheKey]*list.Element
	order   *list.List // of *planCacheEntry; front = most recently used

	hits          int64
	misses        int64
	invalidations int64
}

// planCacheMaxEntries bounds the cache; beyond it the least recently
// used entry is evicted. The bound also bounds how much parsed AST the
// cache can pin (entries hold pattern pointers).
const planCacheMaxEntries = 4096

// planCacheKey identifies a plan: the pattern tuple (by AST identity),
// the set of variables bound on entry, and the matching mode.
type planCacheKey struct {
	part0 *ast.PatternPart
	n     int
	bound string // sorted bound names, \x1f-joined
	mode  Mode
}

// planCacheEntry is one cached plan with its validity stamps.
type planCacheEntry struct {
	key      planCacheKey
	plans    []partPlan
	est      []float64
	ver      int64
	idxEpoch int64
}

// NewPlanCache returns an empty shared plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{entries: make(map[planCacheKey]*list.Element), order: list.New()}
}

// PlanCacheStats is a point-in-time snapshot of a PlanCache's counters.
type PlanCacheStats struct {
	// Hits counts lookups answered from the shared cache (including
	// plans revalidated against drifted-but-tolerable statistics).
	Hits int64
	// Misses counts lookups that had to plan from scratch because no
	// entry existed for the key.
	Misses int64
	// Invalidations counts lookups that found an entry but discarded it
	// — the statistics drifted beyond tolerance or the index epoch
	// changed — and re-planned.
	Invalidations int64
	// Entries is the current number of cached plans.
	Entries int
}

// Stats returns the cache's counters.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Hits: c.hits, Misses: c.misses, Invalidations: c.invalidations, Entries: len(c.entries)}
}

// boundKey canonicalizes a bound-variable set for keying.
func boundKey(names []string) string {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	return strings.Join(sorted, "\x1f")
}

// lookup returns a valid cached plan for the key against the matcher's
// current graph, or nil. A version-stale entry is revalidated by
// recomputing the estimate fingerprint; a drifted or index-stale entry
// is treated as a miss (and counted as an invalidation). The matcher m
// is used only for statistic reads.
func (c *PlanCache) lookup(m *Matcher, key planCacheKey, parts []*ast.PatternPart, bound map[string]bool) []partPlan {
	ver, idxEpoch := m.Graph.Version(), m.Graph.IndexEpoch()
	c.mu.Lock()
	el := c.entries[key]
	if el == nil {
		c.misses++
		c.mu.Unlock()
		return nil
	}
	c.order.MoveToFront(el)
	e := el.Value.(*planCacheEntry)
	if e.idxEpoch == idxEpoch && e.ver == ver {
		c.hits++
		plans := e.plans
		c.mu.Unlock()
		return plans
	}
	if e.idxEpoch != idxEpoch {
		c.invalidations++
		c.remove(el)
		c.mu.Unlock()
		return nil
	}
	// Version moved: revalidate the entry's estimates against the live
	// statistics. The fingerprint is computed outside the lock, so a
	// concurrent writer may move the statistics in between. That race is
	// benign: at worst it makes us re-plan, or keep a plan one lookup
	// longer, never return a wrong result (plans only order enumeration).
	oldEst := e.est
	c.mu.Unlock()
	fp := m.estimateFingerprint(parts, bound)
	c.mu.Lock()
	defer c.mu.Unlock()
	el = c.entries[key]
	if el == nil {
		c.misses++
		return nil
	}
	if estimatesDrifted(oldEst, fp) {
		c.invalidations++
		c.remove(el)
		return nil
	}
	e = el.Value.(*planCacheEntry)
	e.ver = ver
	c.hits++
	return e.plans
}

// store inserts a freshly built plan, replacing any entry already
// cached under the key and evicting the least recently used entry when
// the cache is full.
func (c *PlanCache) store(key planCacheKey, plans []partPlan, est []float64, ver, idxEpoch int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &planCacheEntry{key: key, plans: plans, est: est, ver: ver, idxEpoch: idxEpoch}
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= planCacheMaxEntries {
		c.remove(c.order.Back())
	}
	c.entries[key] = c.order.PushFront(e)
}

// remove drops an entry from both the map and the recency list. The
// caller holds c.mu.
func (c *PlanCache) remove(el *list.Element) {
	c.order.Remove(el)
	delete(c.entries, el.Value.(*planCacheEntry).key)
}
