package plan

import (
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/match"
	"repro/internal/table"
)

// MatcherFunc returns a fresh matcher for parts, bound to ev (the
// serial pipeline's evaluator or a parallel worker's private one) and
// to the slots a seed row binds on entry.
type MatcherFunc func(ev *expr.Evaluator, parts []*ast.PatternPart, bound []int) *match.Matcher

// Builder lowers parsed statements into operator trees. The engine
// supplies the evaluator, a matcher factory (so each Match operator
// carries its own visit counters and reads its pattern's plan slot),
// and the update-clause hook: plan knows *where* a write barrier goes,
// core knows *what* the write does (dialect, merge strategy, scan
// order).
type Builder struct {
	// Ev evaluates expressions; shared with the engine's update clauses
	// so parameters behave identically in both.
	Ev *expr.Evaluator
	// NewMatcher returns a fresh matcher for one MATCH operator.
	NewMatcher MatcherFunc
	// Write applies update clause c to the driving batch in, which the
	// calling Apply barrier owns, and returns the clause's output batch
	// over cols, the output columns planned by WriteColumns (the
	// [[C]](G, T) of the paper, with the graph mutated in place). A
	// clause that adds no column may return in itself, written or not.
	Write func(c ast.Clause, in *Batch, cols []string) (*Batch, error)
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
		if op.all.n < 2*scanMorselRows {
			return nil // too small for the fan-out to pay for itself
		}
		return &segBuild{source: &scanSource{all: op.all, chunk: scanMorselRows}}
	case *Unit:
		return &segBuild{}
	}
	return nil
}

// newWorkerCtx builds one worker's private execution context: an
// evaluator sharing the graph snapshot and parameters but nothing
// mutable.
func (b *Builder) newWorkerCtx() *workerCtx {
	ev := &expr.Evaluator{Graph: b.Ev.Graph, Params: b.Ev.Params, Names: b.Ev.Names}
	return &workerCtx{ev: ev, mf: b.NewMatcher}
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
// member over the initial table (nil t0 means the unit table), a
// sequential Union on top, and a Distinct when any plain UNION asks for
// bag deduplication. Every member scans t0 itself: no operator writes
// the table it scans (an update barrier materializes its own input).
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
			src = NewTableScan(t0)
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
			if err := checkPathVars(cl.Pattern, cur.Columns()); err != nil {
				return nil, err
			}
			cl = b.foldMatchClause(cl)
			newVars := freshVars(match.PatternVariables(cl.Pattern), cur.Columns())
			op := NewMatch(cur, cl, b.NewMatcher, b.Ev, newVars)
			if seg.alive() && seg.source == nil {
				// A segment waiting on the unit source: this first MATCH
				// either supplies anchor morsels or the segment dies (a
				// later clause cannot become the partitioned source).
				if asrc := b.anchorSegSource(op, newVars); asrc != nil {
					seg.source = asrc
				} else {
					seg.dead = true
				}
			} else if seg.alive() {
				seg.stages = append(seg.stages, func(child Operator, w *workerCtx) Operator {
					return NewMatch(child, cl, w.mf, w.ev, newVars)
				})
			}
			cur = op
		case *ast.UnwindClause:
			if slices.Contains(cur.Columns(), cl.Var) {
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
			if slices.Contains(cur.Columns(), cl.Var) {
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
// non-optional MATCH over the unit table, on the serial Match
// operator's matcher. It returns nil — and the pipeline stays serial —
// when the clause is OPTIONAL (each empty partition would emit a
// spurious null row), when the planner cannot guarantee a
// partitionable enumeration (see match.PlanAnchors), or when there are
// too few candidates to be worth fanning out.
func (b *Builder) anchorSegSource(op *Match, newVars []string) *anchorSource {
	if op.cl.Optional {
		return nil
	}
	ap, ok := op.matcher.PlanAnchors(op.cl.Pattern, op.in.row)
	if !ok || len(ap.Anchors()) < 2*minAnchorChunk {
		return nil
	}
	return &anchorSource{
		ap:      ap,
		cl:      op.cl,
		newVars: newVars,
		chunk:   anchorChunk(len(ap.Anchors()), b.Parallelism),
	}
}

// buildWrite wraps an update clause in an Apply barrier over the
// clause's planned output columns (see WriteColumns).
func (b *Builder) buildWrite(child Operator, c ast.Clause) (Operator, error) {
	if b.Write == nil {
		return nil, fmt.Errorf("unsupported clause %T", c)
	}
	label := fmt.Sprintf("%T", c)
	switch cl := c.(type) {
	case *ast.CreateClause:
		label = "CREATE"
	case *ast.MergeClause:
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
	cols := WriteColumns(c, child.Columns())
	fn := func(in *Batch) (*Batch, error) { return b.Write(c, in, cols) }
	return NewApply(child, label, cols, fn), nil
}

// WriteColumns is the output column set of update clause c over a
// driving table with columns in: CREATE and MERGE extend it with their
// pattern's fresh variables, in the order they bind them; SET, REMOVE,
// DELETE and FOREACH keep it. It is the one statement of the rule, for
// the plan's barriers and for FOREACH bodies alike.
func WriteColumns(c ast.Clause, in []string) []string {
	var parts []*ast.PatternPart
	switch cl := c.(type) {
	case *ast.CreateClause:
		parts = cl.Pattern
	case *ast.MergeClause:
		parts = cl.Pattern
	default:
		return in
	}
	return slices.Concat(in, freshVars(match.PatternVariables(parts), in))
}

func (b *Builder) buildProjection(child Operator, proj *ast.Projection, where ast.Expr, seg *segBuild) (Operator, error) {
	items, err := expandItems(proj, child.Columns(), b.Ev.Names)
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
		// those no alias shadows ride along to the Sort as hidden
		// columns — unless DISTINCT breaks the correspondence first.
		pcols := cols
		if len(orderBy) > 0 && !proj.Distinct {
			pcols = slices.Concat(cols, freshVars(child.Columns(), cols))
		}
		cur = NewProject(child, items, pcols, b.Ev)
		if seg.alive() && seg.source != nil {
			seg.stages = append(seg.stages, func(c Operator, w *workerCtx) Operator {
				return NewProject(c, items, pcols, w.ev)
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
	var sorter *Sort
	if len(orderBy) > 0 {
		// Sort is a barrier like Aggregate: the segment ends here and
		// the Sort consumes the exchange's ordered gather with its
		// serial intake.
		cur = b.endSeg(seg, cur)
		sorter = NewSort(cur, orderBy, cols, b.Ev)
		sorter.budget = b.bud
		cur = sorter
	}
	// The Sort reads the counts of the Skip and Limit above it to bound
	// its intake.
	if proj.Skip != nil {
		cur = b.endSeg(seg, cur)
		skip := NewSkip(cur, proj.Skip, b.Ev)
		if sorter != nil {
			sorter.skip = skip.cnt
		}
		cur = skip
	}
	if proj.Limit != nil {
		cur = b.endSeg(seg, cur)
		limit := NewLimit(cur, proj.Limit, b.Ev)
		if sorter != nil {
			sorter.limit = limit.cnt
		}
		cur = limit
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
// shallow copy sharing the original Pattern slice, so the Match
// operator's matcher finds the pattern's plan slot in the prepared
// statement.
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
// scope, whose slots names gives.
func expandItems(proj *ast.Projection, cols []string, names ast.Names) ([]Item, error) {
	var items []Item
	if proj.Star {
		if len(cols) == 0 && len(proj.Items) == 0 {
			return nil, fmt.Errorf("RETURN * is not allowed when there are no variables in scope")
		}
		for _, c := range cols {
			items = append(items, Item{Expr: &ast.Variable{Name: c, Slot: names[c]}, Alias: c})
		}
	}
	for _, it := range proj.Items {
		items = append(items, Item{Expr: it.Expr, Alias: it.Column()})
	}
	return items, nil
}

func freshVars(vars, cols []string) []string {
	var out []string
	for _, v := range vars {
		if !slices.Contains(cols, v) {
			out = append(out, v)
		}
	}
	return out
}

// checkPathVars rejects a MATCH pattern that rebinds a path variable:
// one bound on entry, or declared by two parts. A part that reads the
// variable would see the old value or the new path depending on the
// order the parts are walked in, so the planned and the naive walk
// could disagree.
func checkPathVars(parts []*ast.PatternPart, cols []string) error {
	for i, part := range parts {
		if part.Var == "" {
			continue
		}
		if slices.Contains(cols, part.Var) || slices.ContainsFunc(parts[:i], func(p *ast.PatternPart) bool { return p.Var == part.Var }) {
			return fmt.Errorf("variable `%s` already declared", part.Var)
		}
	}
	return nil
}
