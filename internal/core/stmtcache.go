package core

import (
	"container/list"
	"sync"

	"repro/internal/ast"
	"repro/internal/match"
	"repro/internal/parser"
)

// Prepared is a statement ready to run: the parsed AST plus one match
// plan slot per MATCH and MERGE pattern it contains, in every UNION
// member and FOREACH body. The statement cache hands every session the
// same Prepared for the same text, so all executions of the text share
// its slots; a plan lives as long as its statement.
//
// Sharing is sound because execution never mutates the AST: the engine,
// the plan builder and the matcher treat it as read-only (pushdown
// classification and folding produce per-execution copies).
type Prepared struct {
	*ast.Statement
	slots []patternSlot
}

// patternSlot is the plan slot of the pattern whose first part is part0.
type patternSlot struct {
	part0 *ast.PatternPart
	slot  *match.PlanSlot
}

// prepare gives each MATCH and MERGE pattern of stmt a fresh plan slot
// counted in counts.
func prepare(stmt *ast.Statement, counts *match.PlanCounts) *Prepared {
	p := &Prepared{Statement: stmt}
	var walk func([]ast.Clause)
	walk = func(clauses []ast.Clause) {
		for _, c := range clauses {
			var parts []*ast.PatternPart
			switch cl := c.(type) {
			case *ast.MatchClause:
				parts = cl.Pattern
			case *ast.MergeClause:
				parts = cl.Pattern
			case *ast.ForeachClause:
				walk(cl.Body)
			}
			if len(parts) > 0 {
				p.slots = append(p.slots, patternSlot{parts[0], match.NewPlanSlot(counts)})
			}
		}
	}
	for _, q := range stmt.Queries {
		walk(q.Clauses)
	}
	return p
}

// slot returns the plan slot of one of the statement's patterns (nil
// for a pattern it does not contain: the matcher then plans privately).
func (p *Prepared) slot(parts []*ast.PatternPart) *match.PlanSlot {
	if len(parts) == 0 {
		return nil
	}
	for _, s := range p.slots {
		if s.part0 == parts[0] {
			return s.slot
		}
	}
	return nil
}

// stmtCache caches prepared statements by query text, so hot queries
// are neither re-parsed nor re-planned, from any session.
//
// The cache key is the query text alone; the engine's dialect is fixed
// per engine, so (text, dialect) is implicit. Parse errors are not
// cached (failing statements are not a hot path worth memory).
type stmtCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	hits    int64
	misses  int64
	// plans counts the plan-slot consults of every statement the
	// engine prepares.
	plans match.PlanCounts
}

// stmtCacheMaxEntries bounds the cache; beyond it the least recently
// used statement is evicted, and its plans with it.
const stmtCacheMaxEntries = 1024

type stmtCacheEntry struct {
	text string
	stmt *Prepared
}

func newStmtCache() *stmtCache {
	return &stmtCache{entries: make(map[string]*list.Element), order: list.New()}
}

// parse returns the cached statement for query, parsing, preparing and
// caching it on a miss.
func (c *stmtCache) parse(query string) (*Prepared, error) {
	c.mu.Lock()
	if el, ok := c.entries[query]; ok {
		c.hits++
		c.order.MoveToFront(el)
		stmt := el.Value.(*stmtCacheEntry).stmt
		c.mu.Unlock()
		return stmt, nil
	}
	c.misses++
	c.mu.Unlock()

	// Parse outside the lock; concurrent first parsers of the same text
	// race benignly (last one in wins the cache slot).
	stmt, err := parser.Parse(query)
	if err != nil {
		return nil, err
	}
	p := prepare(stmt, &c.plans)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[query]; ok {
		// Another goroutine cached it meanwhile; return THEIR statement
		// so every caller shares one set of plan slots.
		c.order.MoveToFront(el)
		return el.Value.(*stmtCacheEntry).stmt, nil
	}
	if c.order.Len() >= stmtCacheMaxEntries {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*stmtCacheEntry).text)
	}
	c.entries[query] = c.order.PushFront(&stmtCacheEntry{text: query, stmt: p})
	return p, nil
}

// stats returns the cache's hit/miss counters and its plan slots'.
func (c *stmtCache) stats() (hits, misses int64, plans match.PlanStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	filled := 0
	for el := c.order.Front(); el != nil; el = el.Next() {
		for _, s := range el.Value.(*stmtCacheEntry).stmt.slots {
			if s.slot.Filled() {
				filled++
			}
		}
	}
	return c.hits, c.misses, c.plans.Stats(filled)
}
