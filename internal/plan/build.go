package plan

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/match"
	"repro/internal/table"
)

// Builder lowers parsed statements into operator trees. The engine
// supplies the evaluator, a matcher factory (so each Match operator
// carries its own visit counters), and the update-clause hook: plan
// knows *where* a write barrier goes, core knows *what* the write does
// (dialect, merge strategy, scan order).
type Builder struct {
	// Ev evaluates expressions; shared with the engine's update clauses
	// so parameters behave identically in both.
	Ev *expr.Evaluator
	// NewMatcher returns a fresh matcher for one MATCH operator, bound
	// to the given evaluator (parallel workers pass their private
	// evaluator; the serial pipeline passes Ev).
	NewMatcher func(ev *expr.Evaluator) *match.Matcher
	// Write applies an update clause to a materialized driving table
	// and returns the clause's output table (the [[C]](G, T) of the
	// paper, with the graph mutated in place).
	Write func(c ast.Clause, in *table.Table) (*table.Table, error)
	// MemoryBudget caps the accounted bytes the statement's barriers
	// (Sort, Aggregate, Distinct) may hold in memory before spilling to
	// temp files. Zero or negative means unlimited (no accounting).
	// One budget is shared across all barriers of the statement.
	MemoryBudget int64
	// Parallelism is the exchange degree for morsel-driven parallel
	// read segments. Values <= 1 build fully serial plans. The engine
	// passes 1 for update statements and explicit-transaction pipelines
	// (the single-writer baton stays untouched).
	Parallelism int

	bud *budget
}

// segBuild tracks a parallelizable pipeline segment while BuildQuery
// walks the clause list: the partitioned source (once found) and the
// stage constructors absorbed so far. The serial chain is built
// alongside as the exchange's prototype; endSeg either wraps it in an
// Exchange or — when no partitionable source materialized — leaves it
// as the actual pipeline.
type segBuild struct {
	source morselSource
	stages []stageFn
	dead   bool
}

func (s *segBuild) alive() bool { return s != nil && !s.dead }

// newSegment opens a segment at a pipeline source. A driving table
// partitions by row ranges immediately; the unit table defers to the
// first MATCH clause, whose anchor candidates may partition instead.
func (b *Builder) newSegment(src Operator) *segBuild {
	if b.Parallelism <= 1 {
		return nil
	}
	switch op := src.(type) {
	case *TableScan:
		if op.t.Len() < 2*scanMorselRows {
			return nil // too small for the fan-out to pay for itself
		}
		return &segBuild{source: newScanSource(op.t)}
	case *Unit:
		return &segBuild{}
	}
	return nil
}

// newWorkerCtx builds one worker's private execution context: an
// evaluator sharing the graph snapshot and parameters but nothing
// mutable, plus the per-stage matcher cache.
func (b *Builder) newWorkerCtx() *workerCtx {
	ev := &expr.Evaluator{Graph: b.Ev.Graph, Params: b.Ev.Params}
	return &workerCtx{ev: ev, mf: b.NewMatcher, matchers: map[int]*match.Matcher{}}
}

// endSeg terminates a segment: if it found a partitionable source and
// absorbed at least one stage worth running in parallel, the serial
// chain built so far becomes the prototype of an Exchange, which
// replaces it as the pipeline; otherwise the serial chain stands.
func (b *Builder) endSeg(seg *segBuild, cur Operator) Operator {
	if !seg.alive() {
		return cur
	}
	seg.dead = true
	if seg.source == nil {
		return cur
	}
	if _, bare := seg.source.(*scanSource); bare && len(seg.stages) == 0 {
		return cur // a bare scan gains nothing from fan-out
	}
	return NewExchange(seg.source, seg.stages, cur, b.Parallelism, b.newWorkerCtx)
}

// BuildStatement lowers a whole statement: one pipeline per UNION
// member over its own copy of the initial table (nil t0 means the unit
// table), a sequential Union on top, and a Distinct when any plain
// UNION asks for bag deduplication.
func (b *Builder) BuildStatement(stmt *ast.Statement, t0 *table.Table) (Operator, error) {
	if b.MemoryBudget > 0 {
		b.bud = newBudget(b.MemoryBudget)
	} else {
		b.bud = nil
	}
	members := make([]Operator, 0, len(stmt.Queries))
	for _, q := range stmt.Queries {
		var src Operator
		if t0 != nil {
			src = NewTableScan(t0.Clone())
		} else {
			src = NewUnit()
		}
		root, err := b.BuildQuery(q.Clauses, src)
		if err != nil {
			return nil, err
		}
		members = append(members, root)
	}
	if len(members) == 1 {
		return members[0], nil
	}
	first := members[0].Columns()
	for _, m := range members[1:] {
		if err := unionCompatible(first, m.Columns()); err != nil {
			return nil, err
		}
	}
	var root Operator = NewUnion(members)
	// Plain UNION deduplicates; UNION ALL everywhere keeps duplicates
	// (mixed unions apply the strictest form).
	allAll := true
	for _, a := range stmt.UnionAll {
		if !a {
			allAll = false
		}
	}
	if !allAll {
		d := NewDistinct(root)
		d.budget = b.bud
		root = d
	}
	return root, nil
}

func unionCompatible(a, b []string) error {
	if len(a) != len(b) {
		return fmt.Errorf("UNION requires the same return columns (%v vs %v)", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("UNION requires the same return columns (%v vs %v)", a, b)
		}
	}
	return nil
}

// BuildQuery lowers one single query's clause list over the given
// source operator. Reading clauses and projections become streaming
// operators; every update clause becomes an Apply barrier delegating to
// the Write hook; a query without RETURN is wrapped in Discard (it
// outputs no table, only effects).
func (b *Builder) BuildQuery(clauses []ast.Clause, src Operator) (Operator, error) {
	cur := src
	seg := b.newSegment(src)
	returned := false
	for _, c := range clauses {
		var err error
		switch cl := c.(type) {
		case *ast.MatchClause:
			cl = b.foldMatchClause(cl)
			newVars := freshVars(match.PatternVariables(cl.Pattern), cur.Columns())
			if seg.alive() && seg.source == nil {
				// A segment waiting on the unit source: this first MATCH
				// either supplies anchor morsels or the segment dies (a
				// later clause cannot become the partitioned source).
				if asrc := b.anchorSegSource(cl, cur.Columns()); asrc != nil {
					seg.source = asrc
				} else {
					seg.dead = true
				}
				cur = NewMatch(cur, cl, b.NewMatcher(b.Ev), b.Ev, newVars)
			} else if seg.alive() {
				cur = NewMatch(cur, cl, b.NewMatcher(b.Ev), b.Ev, newVars)
				idx := len(seg.stages)
				seg.stages = append(seg.stages, func(child Operator, w *workerCtx) Operator {
					return NewMatch(child, cl, w.matcherFor(idx), w.ev, newVars)
				})
			} else {
				cur = NewMatch(cur, cl, b.NewMatcher(b.Ev), b.Ev, newVars)
			}
		case *ast.UnwindClause:
			if hasColumn(cur.Columns(), cl.Var) {
				return nil, fmt.Errorf("variable `%s` already declared", cl.Var)
			}
			cl = b.foldUnwindClause(cl)
			cur = NewUnwind(cur, cl, b.Ev)
			if seg.alive() && seg.source != nil {
				seg.stages = append(seg.stages, func(child Operator, w *workerCtx) Operator {
					return NewUnwind(child, cl, w.ev)
				})
			} else {
				seg.kill()
			}
		case *ast.LoadCSVClause:
			if hasColumn(cur.Columns(), cl.Var) {
				return nil, fmt.Errorf("variable `%s` already declared", cl.Var)
			}
			// CSV reading is a serial file cursor: it terminates the
			// segment rather than becoming a stage.
			cur = b.endSeg(seg, cur)
			cur = NewLoadCSV(cur, cl, b.Ev)
		case *ast.WithClause:
			cur, err = b.buildProjection(cur, &cl.Projection, cl.Where, seg)
		case *ast.ReturnClause:
			cur, err = b.buildProjection(cur, &cl.Projection, nil, seg)
			returned = true
		default:
			cur = b.endSeg(seg, cur)
			cur, err = b.buildWrite(cur, c)
		}
		if err != nil {
			return nil, err
		}
	}
	cur = b.endSeg(seg, cur)
	if !returned {
		cur = NewDiscard(cur)
	}
	return cur, nil
}

// kill marks a segment unusable without flushing it (used when a
// clause can be neither source nor stage before a source was found).
func (s *segBuild) kill() {
	if s != nil {
		s.dead = true
	}
}

// anchorSegSource plans anchor-candidate morsels for a leading
// non-optional MATCH over the unit table. It returns nil — and the
// pipeline stays serial — when the clause is OPTIONAL (each empty
// partition would emit a spurious null row), when the planner cannot
// guarantee a partitionable enumeration (see match.PlanAnchors), or
// when there are too few candidates to be worth fanning out.
func (b *Builder) anchorSegSource(cl *ast.MatchClause, outer []string) *anchorSource {
	if cl.Optional {
		return nil
	}
	m := b.NewMatcher(b.Ev)
	pushed := match.NewPushdown(cl.Where, cl.Pattern, outer)
	m.SetPushdown(pushed)
	ap, ok := m.PlanAnchors(cl.Pattern, expr.Env{})
	if !ok || len(ap.Anchors()) < 2*minAnchorChunk {
		return nil
	}
	newVars := freshVars(match.PatternVariables(cl.Pattern), outer)
	cols := append(append([]string(nil), outer...), newVars...)
	return &anchorSource{
		ap:     ap,
		cl:     cl,
		pushed: pushed,
		cols:   cols,
		chunk:  anchorChunk(len(ap.Anchors()), b.Parallelism),
	}
}

// buildWrite wraps an update clause in an Apply barrier, predicting its
// output columns (CREATE and MERGE extend the table with the pattern's
// fresh variables; SET, REMOVE, DELETE and FOREACH preserve columns).
func (b *Builder) buildWrite(child Operator, c ast.Clause) (Operator, error) {
	if b.Write == nil {
		return nil, fmt.Errorf("unsupported clause %T", c)
	}
	cols := append([]string(nil), child.Columns()...)
	label := fmt.Sprintf("%T", c)
	switch cl := c.(type) {
	case *ast.CreateClause:
		cols = append(cols, freshVars(patternVarsCreateOrder(cl.Pattern), cols)...)
		label = "CREATE"
	case *ast.MergeClause:
		cols = append(cols, freshVars(patternVarsCreateOrder(cl.Pattern), cols)...)
		label = cl.Form.String()
	case *ast.SetClause:
		label = "SET"
	case *ast.RemoveClause:
		label = "REMOVE"
	case *ast.DeleteClause:
		label = "DELETE"
		if cl.Detach {
			label = "DETACH DELETE"
		}
	case *ast.ForeachClause:
		label = "FOREACH"
	}
	fn := func(in *table.Table) (*table.Table, error) { return b.Write(c, in) }
	return NewApply(child, label, cols, fn), nil
}

func (b *Builder) buildProjection(child Operator, proj *ast.Projection, where ast.Expr, seg *segBuild) (Operator, error) {
	items, err := expandItems(proj, child.Columns())
	if err != nil {
		return nil, err
	}
	// Constant-fold after aliasing: default column names come from the
	// ORIGINAL expression text, so folding cannot rename a column.
	// Items containing aggregates are skipped wholesale because the
	// aggregation machinery keys per-group results by FuncCall node
	// identity.
	for i := range items {
		if !ast.ContainsAggregate(items[i].Expr) {
			items[i].Expr = b.fold(items[i].Expr)
		}
	}
	orderBy := b.foldSortItems(proj.OrderBy)
	if where != nil && !ast.ContainsAggregate(where) {
		where = b.fold(where)
	}
	cols := make([]string, len(items))
	seen := make(map[string]bool, len(items))
	for i, it := range items {
		cols[i] = it.Alias
		if seen[it.Alias] {
			return nil, fmt.Errorf("duplicate column name %q in projection", it.Alias)
		}
		seen[it.Alias] = true
	}

	hasAgg := false
	for _, it := range items {
		if ast.ContainsAggregate(it.Expr) {
			hasAgg = true
			break
		}
	}

	var cur Operator
	if hasAgg {
		// Aggregation is a barrier: the segment ends here and the
		// Aggregate consumes the exchange's ordered gather (parallel
		// below the barrier, serial intake above it).
		child = b.endSeg(seg, child)
		agg := NewAggregate(child, items, cols, b.Ev)
		agg.budget = b.bud
		cur = agg
	} else {
		// ORDER BY over a plain projection may also reference the
		// pre-projection variables (the projection is row-to-row), so
		// keep each record's source environment until the sort — unless
		// DISTINCT breaks the correspondence first.
		keepSrc := len(proj.OrderBy) > 0 && !proj.Distinct
		cur = NewProject(child, items, cols, b.Ev, keepSrc)
		if seg.alive() && seg.source != nil {
			seg.stages = append(seg.stages, func(c Operator, w *workerCtx) Operator {
				return NewProject(c, items, cols, w.ev, keepSrc)
			})
		} else {
			seg.kill()
		}
	}
	if proj.Distinct {
		cur = b.endSeg(seg, cur)
		d := NewDistinct(cur)
		d.budget = b.bud
		cur = d
	}
	if len(orderBy) > 0 {
		// Sort is parallel-aware: when its child ends up being an
		// Exchange it drains it in callback mode, building per-worker
		// sorted runs merged by the ordinary k-way merger.
		cur = b.endSeg(seg, cur)
		s := NewSort(cur, orderBy, b.Ev)
		s.budget = b.bud
		cur = s
	}
	if proj.Skip != nil {
		cur = b.endSeg(seg, cur)
		cur = NewSkip(cur, proj.Skip, b.Ev)
	}
	if proj.Limit != nil {
		cur = b.endSeg(seg, cur)
		cur = NewLimit(cur, proj.Limit, b.Ev)
	}
	if where != nil {
		if seg.alive() && seg.source != nil {
			seg.stages = append(seg.stages, func(c Operator, w *workerCtx) Operator {
				return NewFilter(c, where, w.ev)
			})
		}
		cur = NewFilter(cur, where, b.Ev)
	}
	return cur, nil
}

// fold runs the expression constant-folding pass (see expr.Fold); the
// result is semantically identical, with closed pure subtrees collapsed
// to plan-time constants that EXPLAIN renders in place of the original
// text.
func (b *Builder) fold(e ast.Expr) ast.Expr {
	if e == nil || b.Ev == nil {
		return e
	}
	return expr.Fold(e, b.Ev)
}

// foldMatchClause folds a MATCH clause's WHERE. The folded clause is a
// shallow copy sharing the original Pattern slice: match plan cache
// entries key on pattern-part pointer identity, so the fold must leave
// every pattern node untouched for cross-execution cache hits to keep
// working.
func (b *Builder) foldMatchClause(cl *ast.MatchClause) *ast.MatchClause {
	folded := b.fold(cl.Where)
	if folded == cl.Where {
		return cl
	}
	return &ast.MatchClause{Optional: cl.Optional, Pattern: cl.Pattern, Where: folded}
}

func (b *Builder) foldUnwindClause(cl *ast.UnwindClause) *ast.UnwindClause {
	folded := b.fold(cl.Expr)
	if folded == cl.Expr {
		return cl
	}
	return &ast.UnwindClause{Expr: folded, Var: cl.Var}
}

func (b *Builder) foldSortItems(items []*ast.SortItem) []*ast.SortItem {
	out := items
	for i, it := range items {
		if ast.ContainsAggregate(it.Expr) {
			continue
		}
		folded := b.fold(it.Expr)
		if folded == it.Expr {
			continue
		}
		if len(out) == len(items) && &out[0] == &items[0] {
			out = append([]*ast.SortItem(nil), items...)
		}
		out[i] = &ast.SortItem{Expr: folded, Desc: it.Desc}
	}
	return out
}

// expandItems resolves * and default aliases against the columns in
// scope.
func expandItems(proj *ast.Projection, cols []string) ([]Item, error) {
	var items []Item
	if proj.Star {
		if len(cols) == 0 && len(proj.Items) == 0 {
			return nil, fmt.Errorf("RETURN * is not allowed when there are no variables in scope")
		}
		for _, c := range cols {
			items = append(items, Item{Expr: &ast.Variable{Name: c}, Alias: c})
		}
	}
	for _, it := range proj.Items {
		alias := it.Alias
		if alias == "" {
			if v, ok := it.Expr.(*ast.Variable); ok {
				alias = v.Name
			} else {
				alias = it.Expr.String()
			}
		}
		items = append(items, Item{Expr: it.Expr, Alias: alias})
	}
	return items, nil
}

// patternVarsCreateOrder lists a pattern tuple's variables in the order
// CREATE/MERGE bind them: per part, the path variable, then node and
// relationship variables interleaved left to right.
func patternVarsCreateOrder(parts []*ast.PatternPart) []string {
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

func freshVars(vars, cols []string) []string {
	var out []string
	for _, v := range vars {
		if !hasColumn(cols, v) {
			out = append(out, v)
		}
	}
	return out
}

func hasColumn(cols []string, name string) bool {
	for _, c := range cols {
		if c == name {
			return true
		}
	}
	return false
}
