package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/match"
	"repro/internal/table"
	"repro/internal/value"
)

var nullValue = value.NullValue

// base is what every operator shares: its input (nil for a source), its
// output columns, its execution counters and the close cascade. An
// operator embeds it and writes NextBatch and Name itself; it writes
// Close only when it has more to release than its child, and Children
// only when it has several (Union).
type base struct {
	child   Operator
	cols    []string
	rows    int64 // records NextBatch has returned
	batches int64 // batches NextBatch has returned
	last    int   // rows in the previous output batch (see demandCap)
	closed  bool
}

// Columns implements Operator.
func (o *base) Columns() []string { return o.cols }

// Children implements Operator.
func (o *base) Children() []Operator {
	if o.child == nil {
		return nil
	}
	return []Operator{o.child}
}

// Close implements Operator: the first call closes the child.
func (o *base) Close() {
	if o.closed {
		return
	}
	o.closed = true
	if o.child != nil {
		o.child.Close()
	}
}

// RowsEmitted reports how many records NextBatch has returned so far,
// making early-exit behaviour observable in tests.
func (o *base) RowsEmitted() int64 { return o.rows }

// opBase exposes the counters of an operator behind the interface (see
// addCounters).
func (o *base) opBase() *base { return o }

// emit finishes an output batch: it remembers the batch size for
// demandCap, reports an empty batch as end of stream and counts the
// rest.
func (o *base) emit(b *Batch) (*Batch, bool, error) {
	o.last = b.n
	if b.n == 0 {
		return nil, false, nil
	}
	o.rows += int64(b.n)
	o.batches++
	return b, true, nil
}

// stats renders the counters for Name (see statsSuffix).
func (o *base) stats() string { return statsSuffix(o.rows, o.batches) }

// over returns a base over child whose output columns are the child's
// followed by extra. Without extra it shares the child's column slice.
func over(child Operator, extra ...string) base {
	cols := child.Columns()
	if len(extra) > 0 {
		cols = append(cols[:len(cols):len(cols)], extra...)
	}
	return base{child: child, cols: cols}
}

// ---------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------

// Unit emits the single empty record T() that starts query evaluation
// (Section 8.1 of the paper).
type Unit struct {
	base
	done bool
}

// NewUnit returns the unit source.
func NewUnit() *Unit { return &Unit{} }

// Name implements Operator.
func (o *Unit) Name() string { return "Unit" + o.stats() }

// TableScan streams the records of a pre-built driving table (the
// ExecuteWithTable entry point of the Section 6 experiments) as views of
// the table's columns, with no copy. A table-scan morsel is a TableScan
// over rows [pos, end) of the shared table (see scanSource).
type TableScan struct {
	base
	all *Batch // the whole table, sharing its storage
	pos int
	end int
}

// NewTableScan returns a scan over t.
func NewTableScan(t *table.Table) *TableScan {
	cols := t.Columns()
	all := &Batch{cols: cols, vals: make([][]value.Value, len(cols)), n: t.Len()}
	for j := range all.vals {
		all.vals[j] = t.Column(j)
	}
	return &TableScan{base: base{cols: all.cols}, all: all, end: all.n}
}

// Name implements Operator.
func (o *TableScan) Name() string {
	return fmt.Sprintf("Scan(%d×%d)", o.all.n, len(o.cols)) + o.stats()
}

// ---------------------------------------------------------------------
// Match
// ---------------------------------------------------------------------

// Match implements MATCH and OPTIONAL MATCH as a streaming expansion:
// for each input record it pulls pattern matches in batches from the
// matcher's enumeration, applying the clause's WHERE inside the stream.
// A consumer that stops pulling (LIMIT, EXISTS) aborts the enumeration
// mid-search; MatchStats exposes how many candidates were visited.
type Match struct {
	base
	cl      *ast.MatchClause
	matcher *match.Matcher
	visits  match.Stats
	pushed  *match.Pushdown

	// An anchor morsel's Match (see anchorSource) enumerates only the
	// matches whose first planned part anchors in its chunk ap.
	ap *match.AnchorPlan

	// Pull state (see NextBatch in batch.go): the input row being
	// expanded, its match iterator (reset for every input row) and how
	// many matches it has emitted (OPTIONAL MATCH pads a row that
	// emitted none). sink appends the iterator's matches through
	// outSlots, the output columns' slots, to out, the batch NextBatch
	// is filling.
	in       input
	outSlots []int
	it       match.Iter
	emitted  int
	out      *Batch
	sink     func([]value.Value)
}

// NewMatch builds a Match operator over child. newVars are the pattern
// variables not already bound by the child's columns. WHERE conjuncts
// decidable on a single pattern slot are pushed into the matcher, which
// uses them to prune candidates during expansion; the full WHERE is
// still evaluated on every complete match, so pushdown never changes
// results (see match.Pushdown). The matcher comes from mf, bound to ev
// and to the slots of the child's columns.
func NewMatch(child Operator, cl *ast.MatchClause, mf MatcherFunc, ev *expr.Evaluator, newVars []string) *Match {
	o := &Match{
		base:   over(child, newVars...),
		cl:     cl,
		pushed: match.NewPushdown(cl.Where, cl.Pattern, child.Columns()),
	}
	o.outSlots = ev.Names.Slots(o.cols)
	o.in.scratch = scratch{row: ev.Row(), slots: o.outSlots[:len(child.Columns())]}
	o.sink = func(row []value.Value) { o.out.AppendRow(row, o.outSlots) }
	o.matcher = mf(ev, cl.Pattern, o.in.slots)
	o.matcher.Stats = &o.visits
	o.matcher.SetPushdown(o.pushed)
	if cl.Where != nil {
		o.it.Filter = func(row []value.Value) (bool, error) {
			ok, err := ev.EvalBool(cl.Where, row)
			return ok == value.True, err
		}
	}
	return o
}

// Name implements Operator. Beyond the pattern it renders the planner's
// choices — part execution order, per-part anchors (index-seek(:L.p)
// when a part anchors on a property index), estimated anchor
// cardinalities (from the current graph statistics), and the pushed
// WHERE conjuncts — which is what the shell's EXPLAIN surfaces.
func (o *Match) Name() string {
	kw := "Match"
	if o.cl.Optional {
		kw = "OptionalMatch"
	}
	var parts []string
	for _, p := range o.cl.Pattern {
		parts = append(parts, p.String())
	}
	s := fmt.Sprintf("%s(%s)", kw, joinTrunc(parts, 60))
	s += " " + o.matcher.DescribePlan(o.cl.Pattern)
	if !o.pushed.Empty() {
		s += " pushed=" + o.pushed.Describe()
	}
	if o.cl.Where != nil {
		s += " WHERE …"
	}
	return s + o.stats()
}

// MatchStats reports the matcher's visit counters (candidates
// considered so far), for early-exit assertions and EXPLAIN.
func (o *Match) MatchStats() match.Stats { return o.visits }

func joinTrunc(parts []string, max int) string {
	s := strings.Join(parts, ", ")
	if len(s) > max {
		r := []rune(s)
		if len(r) > max-1 {
			r = r[:max-1]
		}
		s = string(r) + "…"
	}
	return s
}

// ---------------------------------------------------------------------
// Unwind / LoadCSV
// ---------------------------------------------------------------------

// Unwind expands a list expression into one record per element. Null
// yields no records; a non-list value is treated as a singleton.
type Unwind struct {
	base
	cl *ast.UnwindClause
	ev *expr.Evaluator

	// Pull state (see NextBatch in batch.go): the input row the live
	// element list came from, and the list and the next element of it
	// to emit.
	in    input
	elems value.List
	idx   int
}

// NewUnwind builds an Unwind operator over child.
func NewUnwind(child Operator, cl *ast.UnwindClause, ev *expr.Evaluator) *Unwind {
	return &Unwind{base: over(child, cl.Var), cl: cl, ev: ev, in: input{scratch: newScratch(ev, child.Columns())}}
}

// Name implements Operator.
func (o *Unwind) Name() string {
	return fmt.Sprintf("Unwind(%s AS %s)", o.cl.Expr.String(), o.cl.Var) + o.stats()
}

// LoadCSV reads a CSV file per input record, binding each data row to
// the clause variable: a map with WITH HEADERS, a list of strings
// otherwise. Rows are read from the file one at a time as the consumer
// pulls — nothing is buffered, so LIMIT-style early exit stops reading
// the file mid-way and huge imports stream in constant memory.
type LoadCSV struct {
	base
	cl *ast.LoadCSVClause
	ev *expr.Evaluator

	// Pull state (see NextBatch in batch.go): the input row and the
	// open file it named.
	in     input
	reader *CSVReader
}

// NewLoadCSV builds a LoadCSV operator over child.
func NewLoadCSV(child Operator, cl *ast.LoadCSVClause, ev *expr.Evaluator) *LoadCSV {
	return &LoadCSV{base: over(child, cl.Var), cl: cl, ev: ev, in: input{scratch: newScratch(ev, child.Columns())}}
}

// Close implements Operator: it also closes the open CSV file.
func (o *LoadCSV) Close() {
	if o.reader != nil {
		o.reader.Close()
		o.reader = nil
	}
	o.base.Close()
}

// Name implements Operator.
func (o *LoadCSV) Name() string {
	return fmt.Sprintf("LoadCSV(%s AS %s)", o.cl.URL.String(), o.cl.Var) + o.stats()
}

// ---------------------------------------------------------------------
// Filter / Project / Distinct / Skip / Limit
// ---------------------------------------------------------------------

// Filter keeps records whose predicate evaluates to True (ternary
// logic: null and false are both dropped). It implements WITH … WHERE.
type Filter struct {
	base
	pred ast.Expr
	ev   *expr.Evaluator

	sc     scratch
	selbuf []int
}

// NewFilter builds a Filter over child.
func NewFilter(child Operator, pred ast.Expr, ev *expr.Evaluator) *Filter {
	return &Filter{base: over(child), pred: pred, ev: ev, sc: newScratch(ev, child.Columns())}
}

// Name implements Operator.
func (o *Filter) Name() string {
	return fmt.Sprintf("Filter(%s)", o.pred.String()) + o.stats()
}

// Item is one projection item: an expression and its output column.
type Item struct {
	Expr  ast.Expr
	Alias string
}

// Project evaluates a non-aggregating projection record by record. Its
// columns are the items' aliases, optionally followed by hidden input
// columns that ride along unchanged: under ORDER BY the builder adds the
// input variables no alias shadows, which the Sort may read (legal when
// the projection neither aggregates nor deduplicates — the cardinality
// is unchanged) and drops.
type Project struct {
	base
	items  []Item
	ev     *expr.Evaluator
	hidden []int // input column of each column after the items

	sc scratch
}

// NewProject builds a Project over child. cols holds the items' aliases
// in order, then the names of any input columns to carry as hidden
// columns.
func NewProject(child Operator, items []Item, cols []string, ev *expr.Evaluator) *Project {
	o := &Project{base: base{child: child, cols: cols}, items: items, ev: ev, sc: newScratch(ev, child.Columns())}
	for _, c := range cols[len(items):] {
		o.hidden = append(o.hidden, slices.Index(child.Columns(), c))
	}
	return o
}

// Name implements Operator.
func (o *Project) Name() string {
	return "Project" + describeItems(o.items) + o.stats()
}

func describeItems(items []Item) string {
	var parts []string
	for _, it := range items {
		parts = append(parts, it.Alias)
	}
	return "[" + joinTrunc(parts, 60) + "]"
}

// Distinct drops duplicate records under value equivalence, keeping
// first occurrences in order. Unlike Sort it needs no barrier: the
// first occurrence can be forwarded the moment it arrives. Its
// seen-set, however, is barrier-like state: under a memory budget it
// stops growing at overflow, and rows of new keys take the hashing
// barriers' overflow path, as Aggregate's do (see NextBatch in
// spill.go).
type Distinct struct {
	base
	memAccount
	seen map[string]bool

	// Pull state. keybuf holds a row's values and keyBytes their key,
	// both reused across rows.
	keybuf   []value.Value
	keyBytes []byte
	selbuf   []int
	seq      int64
	drained  bool
	spill    overflow
}

// NewDistinct builds a Distinct over child.
func NewDistinct(child Operator) *Distinct {
	o := &Distinct{base: over(child), seen: make(map[string]bool)}
	o.keybuf = make([]value.Value, len(o.cols))
	return o
}

// Close implements Operator. It releases any spill state: partition
// files still on disk (early-LIMIT abandonment, errors) are removed
// and the accounted budget is returned.
func (o *Distinct) Close() {
	o.spill.close()
	o.releaseAll()
	o.base.Close()
}

// Name implements Operator.
func (o *Distinct) Name() string {
	return "Distinct" + barrierSuffix(o.rows, o.batches, o.PeakBytes(), o.SpillRuns())
}

// count is a SKIP or LIMIT count: an expression over parameters only
// (no variables are in scope), evaluated once, on first use. Skip,
// Limit and a bounded Sort all read their counts through eval; the
// builder hands a Sort the very counts of the Skip and Limit above it,
// so its bound is the value they apply.
type count struct {
	kw   string // SKIP or LIMIT, for the error
	expr ast.Expr
	ev   *expr.Evaluator
	n    int
	err  error
	done bool
}

// eval returns the count, evaluating it on the first call. A count that
// is not a non-negative integer is an error, on every call.
func (c *count) eval() (int, error) {
	if !c.done {
		c.done = true
		v, err := c.ev.Eval(c.expr, c.ev.Row())
		if err != nil {
			c.err = err
		} else if n, ok := value.AsInt(v); !ok || n < 0 {
			c.err = fmt.Errorf("%s expects a non-negative integer, got %s", c.kw, v)
		} else {
			c.n = int(n)
		}
	}
	return c.n, c.err
}

// Skip drops the first n records; Limit stops after n. Both evaluate
// their count lazily on first pull.
type Skip struct {
	base
	cnt     *count
	skipped bool
}

// NewSkip builds a Skip over child.
func NewSkip(child Operator, e ast.Expr, ev *expr.Evaluator) *Skip {
	return &Skip{base: over(child), cnt: &count{kw: "SKIP", expr: e, ev: ev}}
}

// Name implements Operator.
func (o *Skip) Name() string {
	return fmt.Sprintf("Skip(%s)", o.cnt.expr.String()) + o.stats()
}

// Limit forwards at most n records, then reports end of stream without
// pulling its child again — the early exit that prunes upstream
// enumeration.
type Limit struct {
	base
	cnt     *count
	applied bool // LIMIT 0 has run the update clauses below it
}

// NewLimit builds a Limit over child.
func NewLimit(child Operator, e ast.Expr, ev *expr.Evaluator) *Limit {
	return &Limit{base: over(child), cnt: &count{kw: "LIMIT", expr: e, ev: ev}}
}

// Name implements Operator.
func (o *Limit) Name() string {
	return fmt.Sprintf("Limit(%s)", o.cnt.expr.String()) + o.stats()
}

// ---------------------------------------------------------------------
// Barriers: Sort, Aggregate, Apply, Discard
// ---------------------------------------------------------------------

// Sort is a materialization barrier implementing ORDER BY as an
// external sort: rows accumulate in memory (keys computed at intake
// over all the child's columns, the hidden ones a Project carries for
// it included; only the Sort's own columns are kept); under a memory
// budget, full runs are sorted and spilled to temp files and replay is
// a k-way merge. A unique intake sequence number breaks ties, reproducing the
// stable in-memory order exactly. Its intake is serial at every degree:
// over an Exchange it drains the ordered gather, like Aggregate and
// Distinct, so it sees, holds and spills what the serial plan's Sort
// does. See fill in spill.go.
//
// Under a LIMIT the Sort is bounded: only the first skip+limit rows of
// its total order can reach the output, so it keeps at most that many
// (about twice as many between cuts) and drops at intake every row that
// does not sort before the kept bound-th row. Under a budget it cuts to
// the bound before it decides to spill, so a bounded Sort spills only
// when the bound's rows alone exceed the budget.
type Sort struct {
	base
	memAccount
	sorts []*ast.SortItem
	ev    *expr.Evaluator

	// skip and limit are the counts of the Skip and Limit above, nil
	// when the projection has none (see bound).
	skip, limit *count

	filled bool
	spill  overflow
}

// NewSort builds a Sort barrier over child whose output columns are
// cols, a prefix of the child's (the child's columns after it are
// hidden columns the keys may read).
func NewSort(child Operator, sorts []*ast.SortItem, cols []string, ev *expr.Evaluator) *Sort {
	return &Sort{base: base{child: child, cols: cols}, sorts: sorts, ev: ev}
}

// Close implements Operator. It releases the sort's state: any run
// files still on disk (early-LIMIT abandonment, errors) are removed
// and the accounted budget is returned.
func (o *Sort) Close() {
	o.spill.close()
	o.releaseAll()
	o.base.Close()
}

// Name implements Operator.
func (o *Sort) Name() string {
	var parts []string
	for _, s := range o.sorts {
		p := s.Expr.String()
		if s.Desc {
			p += " DESC"
		}
		parts = append(parts, p)
	}
	return fmt.Sprintf("Sort[barrier](%s)", joinTrunc(parts, 50)) + barrierSuffix(o.rows, o.batches, o.PeakBytes(), o.SpillRuns())
}

// Aggregate is a materialization barrier implementing grouped
// projection: records group by the non-aggregating items, aggregates
// accumulate per group, and one row per group is emitted in
// first-appearance order. Zero input records with no grouping keys
// produce the single global group (count(*) = 0). The finalized groups
// of the admitted keys are written into one output batch, nil until
// fill has run, and emitted as views of it. Under a memory budget the
// groups stop growing at overflow and rows of new keys take the
// hashing barriers' overflow path, as Distinct's do: their groups are
// finalized one partition at a time into runs on disk, and the output
// is those runs merged with the batch's rows (see fill in spill.go).
type Aggregate struct {
	base
	memAccount
	items []Item
	ev    *expr.Evaluator

	out   *Batch
	idx   int
	spill overflow
}

// NewAggregate builds an Aggregate barrier over child.
func NewAggregate(child Operator, items []Item, cols []string, ev *expr.Evaluator) *Aggregate {
	return &Aggregate{base: base{child: child, cols: cols}, items: items, ev: ev}
}

// fill (the spilling hash aggregation) lives in spill.go.

// Close implements Operator. It releases any spill state: partition
// files still on disk (early-LIMIT abandonment, errors) are removed
// and the accounted budget is returned.
func (o *Aggregate) Close() {
	o.spill.close()
	o.releaseAll()
	o.base.Close()
}

// Name implements Operator.
func (o *Aggregate) Name() string {
	return "Aggregate[barrier]" + describeItems(o.items) + barrierSuffix(o.rows, o.batches, o.PeakBytes(), o.SpillRuns())
}

// Apply is the update barrier: it drains its child into one driving
// batch (in stream order — exactly the table clause-at-a-time
// evaluation would hand the clause), applies an update-clause function
// to it, then streams the clause's output batch. The barrier is what
// preserves the legacy dialect's record-order-dependent semantics
// (Section 4, Example 3) and the revised dialect's two-phase ChangeSet
// semantics under the streaming executor.
//
// The barrier holds the child's batches until the child is exhausted
// and then copies them once, at their total size, into column slices
// of its own, so the clause function may write their cells (revised
// DELETE nulls deleted references in place) without touching an
// upstream batch or the statement's initial table. It copies only the
// child columns the builder names (see Builder.BuildQuery): those the
// clause or a later clause reads. A column nothing reads again is
// dropped here, so neither the copy nor the clause pays for it.
type Apply struct {
	base
	label string
	in    []string // the driving batch's columns
	take  []int    // the child column of each of in
	fn    func(*Batch) (*Batch, error)

	out    *Batch
	outIdx int
	done   bool
}

// NewApply builds an update barrier over child. in lists the child
// columns the driving batch keeps, in the child's order; cols is the
// clause's output column set (see WriteColumns); fn returns its output
// batch over exactly those columns.
func NewApply(child Operator, label string, in, cols []string, fn func(*Batch) (*Batch, error)) *Apply {
	take := make([]int, len(in))
	for j, c := range in {
		take[j] = slices.Index(child.Columns(), c)
	}
	return &Apply{base: base{child: child, cols: cols}, label: label, in: in, take: take, fn: fn}
}

// fill drains the child into the driving batch and applies the update
// function, once. Stream order is preserved.
func (o *Apply) fill() error {
	if o.done {
		return nil
	}
	var parts []*Batch
	for {
		b, ok, err := o.child.NextBatch(BatchTarget)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		parts = append(parts, b)
	}
	out, err := o.fn(concatBatches(parts, o.in, o.take))
	if err != nil {
		return err
	}
	o.out, o.done = out, true
	return nil
}

// Name implements Operator.
func (o *Apply) Name() string {
	return fmt.Sprintf("Update[barrier:writer-lock](%s)", o.label) + o.stats()
}

// Discard drains its child for effects and emits nothing: the plan of a
// query without RETURN, which outputs the empty zero-column table.
type Discard struct {
	base
	done bool
}

// NewDiscard builds a Discard over child.
func NewDiscard(child Operator) *Discard { return &Discard{base: base{child: child}} }

// Name implements Operator. batches counts the child batches drained.
func (o *Discard) Name() string { return "Discard" + o.stats() }

// ---------------------------------------------------------------------
// Union
// ---------------------------------------------------------------------

// Union streams its members left to right: member i+1 is not pulled
// (and so none of its update barriers fire) until member i is
// exhausted, preserving the paper's sequential UNION semantics — each
// member sees the graph as modified by its predecessors (Section 8.2).
type Union struct {
	base
	children []Operator
	idx      int
}

// NewUnion builds a Union. Members must agree on columns (checked by
// the builder).
func NewUnion(children []Operator) *Union {
	return &Union{base: base{cols: children[0].Columns()}, children: children}
}

// Close implements Operator: the first call closes every member.
func (o *Union) Close() {
	if !o.closed {
		for _, c := range o.children {
			c.Close()
		}
	}
	o.base.Close()
}

// Name implements Operator.
func (o *Union) Name() string {
	return fmt.Sprintf("Union(%d members)", len(o.children)) + o.stats()
}

// Children implements Operator.
func (o *Union) Children() []Operator { return o.children }
