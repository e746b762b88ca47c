package core

import (
	"container/list"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/lexer"
	"repro/internal/match"
	"repro/internal/parser"
	"repro/internal/token"
	"repro/internal/value"
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
// Texts that differ only in the literals of their inline property
// maps share one Prepared too, through a template (see stmtCache): each
// such text gets a handle of its own that carries its literals' values
// as bindings, which the evaluator reads in place of the template's.
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
	// binds holds the values of the statement's bound literals (see
	// ast.Literal.Bind) when the statement is a template shared with
	// the text this handle was made for; nil means the statement's own
	// literals.
	binds []value.Value
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

// stmtCache caches prepared statements, so hot queries are neither
// re-parsed nor re-planned, from any session. It has two levels:
//
//   - By text: a text seen before gets the Prepared made for it.
//   - By shape: a text's shape is its token stream with every Int,
//     Float and String literal token replaced by a marker of its kind
//     (the lexer has already dropped whitespace and comments). The first
//     valid text of a shape becomes the shape's template. A literal of
//     the template is bound when it is the direct value of an inline
//     property map in a node or relationship pattern, as in
//     (u:User{id:4711}): every layer evaluates such a value per row,
//     like a parameter. Every other literal is pinned: SKIP and LIMIT,
//     variable-length bounds, signed literals, projection items (whose
//     text names their column), folded subtrees, the LOAD CSV URL
//     (true, false and null are keywords, so the shape holds them). A
//     later text of the shape whose pinned literals repeat the
//     template's byte for byte shares the template's Prepared, with its
//     own bound literals' values as bindings.
//
// A template hit is served without parsing, preparing or planning: the
// text is lexed, and its bound literals are converted. It adds no entry,
// so a stream of texts of one shape cannot evict other statements. The
// text itself was not cached, so it counts as a miss, and as a template
// hit besides.
//
// The keys are the text and its shape alone; the engine's dialect is
// fixed per engine, so (text, dialect) is implicit. Parse errors are not
// cached (failing statements are not a hot path worth memory); a
// statement the dialect refuses parses, and is cached with its verdict
// by its text, but never becomes a template.
type stmtCache struct {
	mu     sync.Mutex
	texts  map[string]*list.Element
	shapes map[string]*list.Element
	order  *list.List // of *stmtCacheEntry, front = most recently used
	hits   atomic.Int64
	misses atomic.Int64
	tmpls  atomic.Int64 // the misses a template served
	// plans counts the plan-slot consults of every statement the
	// engine prepares.
	plans match.PlanCounts
}

// stmtCacheMaxEntries bounds the cache, texts and shapes together;
// beyond it the least recently used entry is evicted, and the plans of
// its statement with it once no other entry holds the statement.
const stmtCacheMaxEntries = 1024

// stmtCacheEntry is a text's statement, or a shape's template.
type stmtCacheEntry struct {
	key  string
	stmt *Prepared
	tmpl *template // non-nil for a shape's entry
}

// template is the shared preparation of the texts of one shape: the
// statement of the shape's first valid text, and what each literal
// token of that text became.
type template struct {
	stmt  *Prepared
	lits  []templateLit // one per Int, Float and String token, in order
	binds int           // how many of them are bound
}

// templateLit is one literal token of a template's text.
type templateLit struct {
	text string // the token's literal, which a pinned token must repeat
	bind int    // the literal's binding index, or -1 if it is pinned
}

func newStmtCache() *stmtCache {
	return &stmtCache{texts: map[string]*list.Element{}, shapes: map[string]*list.Element{}, order: list.New()}
}

// parse returns the statement for query: the cached one, a handle on
// its shape's template, or one parsed and prepared under cfg and cached
// on a miss. With own set the statement carries the text's own literals
// (EXPLAIN and PROFILE render them), so no template is consulted. Every
// call counts one hit or one miss: a hit when the text itself is cached.
func (c *stmtCache) parse(query string, cfg Config, own bool) (*Prepared, error) {
	c.mu.Lock()
	if el, ok := c.texts[query]; ok {
		c.order.MoveToFront(el)
		stmt := el.Value.(*stmtCacheEntry).stmt
		c.mu.Unlock()
		c.hits.Add(1)
		return stmt, nil
	}
	c.mu.Unlock()

	// Lex, key and bind outside the lock. Small texts key into a stack
	// buffer.
	toks, err := lexer.Tokenize(query)
	if err != nil {
		c.misses.Add(1)
		return nil, err
	}
	var buf [256]byte
	shape := appendShape(buf[:0], toks)
	var tmpl *template
	c.mu.Lock()
	if el, ok := c.shapes[string(shape)]; ok && !own {
		c.order.MoveToFront(el)
		tmpl = el.Value.(*stmtCacheEntry).tmpl
	}
	c.mu.Unlock()
	c.misses.Add(1)
	if tmpl != nil {
		if p := tmpl.bind(toks); p != nil {
			c.tmpls.Add(1)
			return p, nil
		}
	}

	// Parse outside the lock; concurrent first parsers of the same text
	// race benignly (first one in wins the cache slot).
	stmt, lits, err := parser.ParseTokens(toks)
	if err != nil {
		return nil, err
	}
	p := prepare(stmt, cfg, &c.plans)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.texts[query]; ok {
		// Another goroutine cached it meanwhile; return THEIR statement
		// so every caller shares one set of plan slots.
		c.order.MoveToFront(el)
		return el.Value.(*stmtCacheEntry).stmt, nil
	}
	c.add(c.texts, &stmtCacheEntry{key: query, stmt: p})
	if _, ok := c.shapes[string(shape)]; !ok && p.err == nil {
		c.add(c.shapes, &stmtCacheEntry{key: string(shape), stmt: p, tmpl: newTemplate(p, toks, lits)})
	}
	return p, nil
}

// add puts e at the front of the cache under its key in m, evicting the
// least recently used entry when the cache is full.
func (c *stmtCache) add(m map[string]*list.Element, e *stmtCacheEntry) {
	if c.order.Len() >= stmtCacheMaxEntries {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		if o := oldest.Value.(*stmtCacheEntry); o.tmpl != nil {
			delete(c.shapes, o.key)
		} else {
			delete(c.texts, o.key)
		}
	}
	m[e.key] = c.order.PushFront(e)
}

// appendShape appends the shape key of toks to buf: each token's type,
// and the text of every name, parameter and keyword (a keyword's
// spelling can be a label or a key). Literal tokens contribute their
// type alone.
func appendShape(buf []byte, toks []token.Token) []byte {
	for _, t := range toks {
		buf = binary.AppendUvarint(buf, uint64(t.Type))
		if t.Type == token.Ident || t.Type == token.Param || t.Type.IsKeyword() {
			buf = binary.AppendUvarint(buf, uint64(len(t.Lit)))
			buf = append(buf, t.Lit...)
		}
	}
	return buf
}

// isLiteralToken reports whether a token is a literal that a shape
// marks by its kind alone.
func isLiteralToken(t token.Type) bool {
	return t == token.Int || t == token.Float || t == token.String
}

// newTemplate makes p, prepared from toks, the template of their shape.
// lits are the literals the parser built from toks; those that are the
// direct value of an inline property map are numbered as p's bound
// literals.
func newTemplate(p *Prepared, toks []token.Token, lits []parser.LiteralToken) *template {
	bound := map[*ast.Literal]bool{}
	for _, q := range p.Queries {
		patternLiterals(q.Clauses, bound)
	}
	t := &template{stmt: p}
	binds := make(map[int]int, len(bound)) // token index -> binding index
	for _, lt := range lits {
		if bound[lt.Lit] {
			binds[lt.Tok] = t.binds
			t.binds++
			lt.Lit.Bind = t.binds
		}
	}
	for i, tok := range toks {
		if !isLiteralToken(tok.Type) {
			continue
		}
		b, ok := binds[i]
		if !ok {
			b = -1
		}
		t.lits = append(t.lits, templateLit{text: tok.Lit, bind: b})
	}
	return t
}

// patternLiterals adds to bound the literals that are direct values of
// the inline property maps of the MATCH, CREATE and MERGE patterns of
// cs, FOREACH bodies included.
func patternLiterals(cs []ast.Clause, bound map[*ast.Literal]bool) {
	props := func(e ast.Expr) {
		if m, ok := e.(*ast.MapLit); ok {
			for _, v := range m.Vals {
				if l, ok := v.(*ast.Literal); ok {
					bound[l] = true
				}
			}
		}
	}
	for _, c := range cs {
		var parts []*ast.PatternPart
		switch cl := c.(type) {
		case *ast.MatchClause:
			parts = cl.Pattern
		case *ast.CreateClause:
			parts = cl.Pattern
		case *ast.MergeClause:
			parts = cl.Pattern
		case *ast.ForeachClause:
			patternLiterals(cl.Body, bound)
		}
		for _, part := range parts {
			for _, n := range part.Nodes {
				props(n.Props)
			}
			for _, r := range part.Rels {
				props(r.Props)
			}
		}
	}
}

// bind returns the template's statement for toks, a text of its shape,
// with that text's bound literals as bindings; nil when a pinned
// literal differs from the template's, or a bound one does not convert
// (an integer out of range: parsing the text reports it).
func (t *template) bind(toks []token.Token) *Prepared {
	var binds []value.Value
	if t.binds > 0 {
		binds = make([]value.Value, t.binds)
	}
	j := 0
	for _, tok := range toks {
		if !isLiteralToken(tok.Type) {
			continue
		}
		l := t.lits[j]
		j++
		if l.bind < 0 {
			if tok.Lit != l.text {
				return nil
			}
			continue
		}
		v, err := parser.LiteralValue(tok)
		if err != nil {
			return nil
		}
		binds[l.bind] = v
	}
	if binds == nil {
		return t.stmt
	}
	h := *t.stmt
	h.binds = binds
	return &h
}

// stats returns the cache's hit, miss and template-hit counters, its
// entry count and its plan slots' counters. A template shares its
// statement, and so its slots, with its text's entry; each slot is
// counted once.
func (c *stmtCache) stats() (hits, misses, tmpls int64, entries int, plans match.PlanStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	filled := 0
	seen := map[*Prepared]bool{}
	for el := c.order.Front(); el != nil; el = el.Next() {
		p := el.Value.(*stmtCacheEntry).stmt
		if seen[p] {
			continue
		}
		seen[p] = true
		for _, s := range p.slots {
			if s.Filled() {
				filled++
			}
		}
	}
	return c.hits.Load(), c.misses.Load(), c.tmpls.Load(), c.order.Len(), c.plans.Stats(filled)
}
