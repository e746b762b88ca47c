package core

import (
	"container/list"
	"sync"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/match"
	"repro/internal/parser"
)

// Prepared is a statement ready to run: the parsed AST with every
// variable resolved to its row slot and its constant subexpressions
// folded, the name table that numbers the slots (see ast.Names), the
// statement's verdict under the engine's dialect, and one match plan
// slot per MATCH and MERGE pattern it contains, in every UNION member
// and FOREACH body. The statement cache hands every session the same
// Prepared for the same text, so all executions of the text share its
// verdict, its folded expressions and its slots; a plan lives as long
// as its statement.
//
// Sharing is sound because execution never mutates the AST: prepare
// writes the row slots and the folded expressions before the statement
// is shared, and the engine, the plan builder and the matcher treat it
// as read-only afterwards (pushdown classification produces
// per-execution copies).
type Prepared struct {
	*ast.Statement
	names ast.Names
	slots map[*ast.PatternPart]*match.PlanSlot // by the pattern's first part
	err   error                                // the dialect verdict (see Validate)
}

// prepare resolves stmt's variables to row slots, gives each MATCH and
// MERGE pattern of stmt a fresh plan slot counted in counts, validates
// stmt under cfg's dialect (unless cfg skips validation) and folds a
// valid statement's constants. A statement's well-formedness and its
// constants depend on its text and dialect alone, never on the graph or
// the parameters, so this is done once per text.
func prepare(stmt *ast.Statement, cfg Config, counts *match.PlanCounts) *Prepared {
	p := &Prepared{Statement: stmt, names: ast.Names{}, slots: map[*ast.PatternPart]*match.PlanSlot{}}
	p.names.Resolve(stmt, func(parts []*ast.PatternPart) {
		if len(parts) > 0 {
			p.slots[parts[0]] = match.NewPlanSlot(counts)
		}
	})
	if !cfg.skipValidation {
		p.err = Validate(stmt, cfg.Dialect)
	}
	if p.err == nil {
		foldStatement(stmt, &expr.Evaluator{Names: p.names})
	}
	return p
}

// Err returns the statement's verdict under the dialect of the engine
// that prepared it: the error Validate reported, or nil. Executing,
// explaining or profiling an invalid statement returns this error.
func (p *Prepared) Err() error { return p.err }

// foldStatement constant-folds, in place, the expressions the plan
// evaluates per row: each UNION member's MATCH and WITH WHERE, UNWIND
// list, projection items and ORDER BY keys (see expr.Fold). ev has no
// graph and no parameters, as folding reads neither. Anything holding
// an aggregate is left alone: the aggregation machinery keys per-group
// results by FuncCall node identity. A folded item without an alias
// first takes its column name as alias, so folding renames no column.
func foldStatement(stmt *ast.Statement, ev *expr.Evaluator) {
	// Like ast.Names.Resolve, it writes a field only when folding changes
	// it, so preparing an already prepared statement writes nothing.
	fold := func(e *ast.Expr) bool {
		if ast.ContainsAggregate(*e) {
			return false
		}
		folded := expr.Fold(*e, ev)
		if folded == *e {
			return false
		}
		*e = folded
		return true
	}
	projection := func(p *ast.Projection) {
		for _, it := range p.Items {
			if e := it.Expr; fold(&e) {
				it.Alias = it.Column() // still the unfolded text's column
				it.Expr = e
			}
		}
		for _, s := range p.OrderBy {
			fold(&s.Expr)
		}
	}
	for _, q := range stmt.Queries {
		for _, c := range q.Clauses {
			switch cl := c.(type) {
			case *ast.MatchClause:
				fold(&cl.Where)
			case *ast.UnwindClause:
				fold(&cl.Expr)
			case *ast.WithClause:
				projection(&cl.Projection)
				fold(&cl.Where)
			case *ast.ReturnClause:
				projection(&cl.Projection)
			}
		}
	}
}

// slot returns the plan slot of one of the statement's patterns (nil
// for a pattern it does not contain: the matcher then plans privately).
func (p *Prepared) slot(parts []*ast.PatternPart) *match.PlanSlot {
	if len(parts) == 0 {
		return nil
	}
	return p.slots[parts[0]]
}

// stmtCache caches prepared statements by query text, so hot queries
// are neither re-parsed nor re-planned, from any session.
//
// The cache key is the query text alone; the engine's dialect is fixed
// per engine, so (text, dialect) is implicit. Parse errors are not
// cached (failing statements are not a hot path worth memory); a
// statement the dialect refuses parses, and is cached with its verdict.
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

// parse returns the cached statement for query, parsing, preparing
// under cfg and caching it on a miss.
func (c *stmtCache) parse(query string, cfg Config) (*Prepared, error) {
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
	p := prepare(stmt, cfg, &c.plans)
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
			if s.Filled() {
				filled++
			}
		}
	}
	return c.hits, c.misses, c.plans.Stats(filled)
}
