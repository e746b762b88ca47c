package plan

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/match"
	"repro/internal/table"
	"repro/internal/value"
)

var nullValue = value.NullValue

// ---------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------

// Unit emits the single empty record T() that starts query evaluation
// (Section 8.1 of the paper).
type Unit struct {
	done    bool
	st      opState
	rows    int64
	batches int64
}

// NewUnit returns the unit source.
func NewUnit() *Unit { return &Unit{} }

// Columns implements Operator.
func (o *Unit) Columns() []string { return nil }

// Open implements Operator.
func (o *Unit) Open() error { return o.st.open("Unit") }

// Close implements Operator.
func (o *Unit) Close() { o.st.close() }

// Name implements Operator.
func (o *Unit) Name() string { return "Unit" + statsSuffix(o.rows, o.batches) }

// Children implements Operator.
func (o *Unit) Children() []Operator { return nil }

// RowsEmitted implements Operator.
func (o *Unit) RowsEmitted() int64 { return o.rows }

// TableScan streams the records of a pre-built driving table (the
// ExecuteWithTable entry point of the Section 6 experiments, and the
// output side of every materialization barrier).
type TableScan struct {
	t       *table.Table
	pos     int
	st      opState
	rows    int64
	batches int64
}

// NewTableScan returns a scan over t.
func NewTableScan(t *table.Table) *TableScan { return &TableScan{t: t} }

// Columns implements Operator.
func (o *TableScan) Columns() []string { return o.t.Columns() }

// Open implements Operator.
func (o *TableScan) Open() error {
	return o.st.open("Scan")
}

// Close implements Operator.
func (o *TableScan) Close() { o.st.close() }

// Name implements Operator.
func (o *TableScan) Name() string {
	return fmt.Sprintf("Scan(%d×%d)", o.t.Len(), len(o.t.Columns())) + statsSuffix(o.rows, o.batches)
}

// Children implements Operator.
func (o *TableScan) Children() []Operator { return nil }

// RowsEmitted implements Operator.
func (o *TableScan) RowsEmitted() int64 { return o.rows }

// ---------------------------------------------------------------------
// Match
// ---------------------------------------------------------------------

// Match implements MATCH and OPTIONAL MATCH as a streaming expansion:
// for each input record it pulls pattern matches in batches from the
// matcher's enumeration, applying the clause's WHERE inside the stream.
// A consumer that stops pulling (LIMIT, EXISTS) aborts the enumeration
// mid-search; MatchStats exposes how many candidates were visited.
type Match struct {
	child   Operator
	cl      *ast.MatchClause
	matcher *match.Matcher
	ev      *expr.Evaluator
	cols    []string
	stats   match.Stats
	pushed  *match.Pushdown

	// Pull state (see NextBatch in batch.go): the current input batch
	// and the next row of it to expand, the input row being expanded,
	// its match cursor, matches already enumerated but not yet emitted,
	// and how many it has emitted (OPTIONAL MATCH pads a row that
	// emitted none).
	in      *Batch
	inIdx   int
	inDone  bool
	curRow  expr.Env
	cur     *match.Cursor
	buf     []expr.Env
	emitted int

	st      opState
	rows    int64
	batches int64
}

// NewMatch builds a Match operator over child. newVars are the pattern
// variables not already bound by the child's columns. WHERE conjuncts
// decidable on a single pattern slot are pushed into the matcher, which
// uses them to prune candidates during expansion; the full WHERE is
// still evaluated on every complete match, so pushdown never changes
// results (see match.Pushdown).
func NewMatch(child Operator, cl *ast.MatchClause, m *match.Matcher, ev *expr.Evaluator, newVars []string) *Match {
	o := &Match{
		child:   child,
		cl:      cl,
		matcher: m,
		ev:      ev,
		cols:    append(append([]string(nil), child.Columns()...), newVars...),
		pushed:  match.NewPushdown(cl.Where, cl.Pattern, child.Columns()),
	}
	o.matcher.Stats = &o.stats
	o.matcher.SetPushdown(o.pushed)
	return o
}

// Columns implements Operator.
func (o *Match) Columns() []string { return o.cols }

// Open implements Operator.
func (o *Match) Open() error {
	if err := o.st.open("Match"); err != nil {
		return err
	}
	return o.child.Open()
}

// Close implements Operator.
func (o *Match) Close() {
	if !o.st.close() {
		return
	}
	if o.cur != nil {
		o.cur.Stop()
		o.cur = nil
	}
	o.child.Close()
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
	s += " " + o.matcher.DescribePlan(o.cl.Pattern, o.child.Columns())
	if !o.pushed.Empty() {
		s += " pushed=" + o.pushed.Describe()
	}
	if o.cl.Where != nil {
		s += " WHERE …"
	}
	return s + statsSuffix(o.rows, o.batches)
}

// Children implements Operator.
func (o *Match) Children() []Operator { return []Operator{o.child} }

// RowsEmitted implements Operator.
func (o *Match) RowsEmitted() int64 { return o.rows }

// MatchStats reports the matcher's visit counters (candidates
// considered so far), for early-exit assertions and EXPLAIN.
func (o *Match) MatchStats() match.Stats { return o.stats }

func joinTrunc(parts []string, max int) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += ", "
		}
		s += p
	}
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
	child Operator
	cl    *ast.UnwindClause
	ev    *expr.Evaluator
	cols  []string

	// Pull state (see NextBatch in batch.go): the current input batch,
	// the next row of it to expand, the row the live element list came
	// from, the list and the next element of it to emit, and a scratch
	// environment for evaluating the list expression.
	in      *Batch
	inIdx   int
	inDone  bool
	inRow   int
	elems   value.List
	idx     int
	scratch expr.Env

	st      opState
	rows    int64
	batches int64
}

// NewUnwind builds an Unwind operator over child.
func NewUnwind(child Operator, cl *ast.UnwindClause, ev *expr.Evaluator) *Unwind {
	return &Unwind{
		child: child, cl: cl, ev: ev,
		cols: append(append([]string(nil), child.Columns()...), cl.Var),
	}
}

// Columns implements Operator.
func (o *Unwind) Columns() []string { return o.cols }

// Open implements Operator.
func (o *Unwind) Open() error {
	if err := o.st.open("Unwind"); err != nil {
		return err
	}
	return o.child.Open()
}

// Close implements Operator.
func (o *Unwind) Close() {
	if !o.st.close() {
		return
	}
	o.child.Close()
}

// Name implements Operator.
func (o *Unwind) Name() string {
	return fmt.Sprintf("Unwind(%s AS %s)", o.cl.Expr.String(), o.cl.Var) + statsSuffix(o.rows, o.batches)
}

// Children implements Operator.
func (o *Unwind) Children() []Operator { return []Operator{o.child} }

// RowsEmitted implements Operator.
func (o *Unwind) RowsEmitted() int64 { return o.rows }

// LoadCSV reads a CSV file per input record, binding each data row to
// the clause variable: a map with WITH HEADERS, a list of strings
// otherwise. Rows are read from the file one at a time as the consumer
// pulls — nothing is buffered, so LIMIT-style early exit stops reading
// the file mid-way and huge imports stream in constant memory.
type LoadCSV struct {
	child Operator
	cl    *ast.LoadCSVClause
	ev    *expr.Evaluator
	cols  []string

	// Pull state (see NextBatch in batch.go), as in Unwind; reader is
	// the open file of input row inRow.
	in      *Batch
	inIdx   int
	inDone  bool
	inRow   int
	reader  *CSVReader
	scratch expr.Env

	st      opState
	rows    int64
	batches int64
}

// NewLoadCSV builds a LoadCSV operator over child.
func NewLoadCSV(child Operator, cl *ast.LoadCSVClause, ev *expr.Evaluator) *LoadCSV {
	return &LoadCSV{
		child: child, cl: cl, ev: ev,
		cols: append(append([]string(nil), child.Columns()...), cl.Var),
	}
}

// Columns implements Operator.
func (o *LoadCSV) Columns() []string { return o.cols }

// Open implements Operator.
func (o *LoadCSV) Open() error {
	if err := o.st.open("LoadCSV"); err != nil {
		return err
	}
	return o.child.Open()
}

// Close implements Operator.
func (o *LoadCSV) Close() {
	if !o.st.close() {
		return
	}
	if o.reader != nil {
		o.reader.Close()
		o.reader = nil
	}
	o.child.Close()
}

// Name implements Operator.
func (o *LoadCSV) Name() string {
	return fmt.Sprintf("LoadCSV(%s AS %s)", o.cl.URL.String(), o.cl.Var) + statsSuffix(o.rows, o.batches)
}

// Children implements Operator.
func (o *LoadCSV) Children() []Operator { return []Operator{o.child} }

// RowsEmitted implements Operator.
func (o *LoadCSV) RowsEmitted() int64 { return o.rows }

// ---------------------------------------------------------------------
// Filter / Project / Distinct / Skip / Limit
// ---------------------------------------------------------------------

// Filter keeps records whose predicate evaluates to True (ternary
// logic: null and false are both dropped). It implements WITH … WHERE.
type Filter struct {
	child Operator
	pred  ast.Expr
	ev    *expr.Evaluator

	st      opState
	rows    int64
	batches int64
	scratch expr.Env
	selbuf  []int
}

// NewFilter builds a Filter over child.
func NewFilter(child Operator, pred ast.Expr, ev *expr.Evaluator) *Filter {
	return &Filter{child: child, pred: pred, ev: ev}
}

// Columns implements Operator.
func (o *Filter) Columns() []string { return o.child.Columns() }

// Open implements Operator.
func (o *Filter) Open() error {
	if err := o.st.open("Filter"); err != nil {
		return err
	}
	return o.child.Open()
}

// Close implements Operator.
func (o *Filter) Close() {
	if !o.st.close() {
		return
	}
	o.child.Close()
}

// Name implements Operator.
func (o *Filter) Name() string {
	return fmt.Sprintf("Filter(%s)", o.pred.String()) + statsSuffix(o.rows, o.batches)
}

// Children implements Operator.
func (o *Filter) Children() []Operator { return []Operator{o.child} }

// RowsEmitted implements Operator.
func (o *Filter) RowsEmitted() int64 { return o.rows }

// Item is one projection item: an expression and its output column.
type Item struct {
	Expr  ast.Expr
	Alias string
}

// Project evaluates a non-aggregating projection record by record. With
// keepSrc it attaches each input environment to the output row so a
// downstream Sort can evaluate ORDER BY keys over pre-projection
// variables (legal when the projection neither aggregates nor
// deduplicates — the cardinality is unchanged).
type Project struct {
	child   Operator
	items   []Item
	cols    []string
	ev      *expr.Evaluator
	keepSrc bool

	st         opState
	rows       int64
	batches    int64
	scratch    expr.Env
	outScratch expr.Env
}

// NewProject builds a Project over child.
func NewProject(child Operator, items []Item, cols []string, ev *expr.Evaluator, keepSrc bool) *Project {
	return &Project{child: child, items: items, cols: cols, ev: ev, keepSrc: keepSrc}
}

// Columns implements Operator.
func (o *Project) Columns() []string { return o.cols }

// Open implements Operator.
func (o *Project) Open() error {
	if err := o.st.open("Project"); err != nil {
		return err
	}
	return o.child.Open()
}

// Close implements Operator.
func (o *Project) Close() {
	if !o.st.close() {
		return
	}
	o.child.Close()
}

// Name implements Operator.
func (o *Project) Name() string {
	return "Project" + describeItems(o.items) + statsSuffix(o.rows, o.batches)
}

// Children implements Operator.
func (o *Project) Children() []Operator { return []Operator{o.child} }

// RowsEmitted implements Operator.
func (o *Project) RowsEmitted() int64 { return o.rows }

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
// is capped and overflow keys spill to hash partitions (see
// distinctNextBatch in spill.go).
type Distinct struct {
	child  Operator
	seen   map[string]bool
	budget *budget
	rows   int64

	// Pull and spill state (see spill.go).
	st       opState
	batches  int64
	dcols    []string
	keybuf   []value.Value
	selbuf   []int
	seq      int64
	drained  bool
	spilling bool
	parts    []*spillFile
	merged   *runMerger
	held     int64
	peak     int64
	spills   int64
}

// NewDistinct builds a Distinct over child.
func NewDistinct(child Operator) *Distinct { return &Distinct{child: child} }

// Columns implements Operator.
func (o *Distinct) Columns() []string { return o.child.Columns() }

// Open implements Operator.
func (o *Distinct) Open() error {
	if err := o.st.open("Distinct"); err != nil {
		return err
	}
	o.seen = make(map[string]bool)
	return o.child.Open()
}

// Close implements Operator. It releases any spill state: partition
// files still on disk (early-LIMIT abandonment, errors) are removed
// and the accounted budget is returned.
func (o *Distinct) Close() {
	if !o.st.close() {
		return
	}
	if o.merged != nil {
		o.merged.close()
		o.merged = nil
	}
	for _, p := range o.parts {
		p.discard()
	}
	o.parts = nil
	o.budget.shrink(o.held)
	o.held = 0
	o.child.Close()
}

// Name implements Operator.
func (o *Distinct) Name() string {
	return "Distinct" + barrierSuffix(o.rows, o.batches, o.peak, o.spills)
}

// Children implements Operator.
func (o *Distinct) Children() []Operator { return []Operator{o.child} }

// RowsEmitted implements Operator.
func (o *Distinct) RowsEmitted() int64 { return o.rows }

// PeakBytes reports the peak accounted seen-set memory.
func (o *Distinct) PeakBytes() int64 { return o.peak }

// SpillRuns reports how many partition files were spilled and replayed.
func (o *Distinct) SpillRuns() int64 { return o.spills }

// Skip drops the first n records; Limit stops after n. Both evaluate
// their count expression lazily on first pull (parameters only — the
// expression has no variables in scope).
type Skip struct {
	child   Operator
	expr    ast.Expr
	ev      *expr.Evaluator
	n       int
	ready   bool
	st      opState
	rows    int64
	batches int64
}

// NewSkip builds a Skip over child.
func NewSkip(child Operator, e ast.Expr, ev *expr.Evaluator) *Skip {
	return &Skip{child: child, expr: e, ev: ev}
}

// Columns implements Operator.
func (o *Skip) Columns() []string { return o.child.Columns() }

// Open implements Operator.
func (o *Skip) Open() error {
	if err := o.st.open("Skip"); err != nil {
		return err
	}
	return o.child.Open()
}

// ensure evaluates the count expression once, on first pull.
func (o *Skip) ensure() error {
	if o.ready {
		return nil
	}
	v, err := o.ev.Eval(o.expr, expr.Env{})
	if err != nil {
		return err
	}
	s, ok := value.AsInt(v)
	if !ok || s < 0 {
		return fmt.Errorf("SKIP expects a non-negative integer, got %s", v)
	}
	o.n, o.ready = int(s), true
	return nil
}

// Close implements Operator.
func (o *Skip) Close() {
	if !o.st.close() {
		return
	}
	o.child.Close()
}

// Name implements Operator.
func (o *Skip) Name() string {
	return fmt.Sprintf("Skip(%s)", o.expr.String()) + statsSuffix(o.rows, o.batches)
}

// Children implements Operator.
func (o *Skip) Children() []Operator { return []Operator{o.child} }

// RowsEmitted implements Operator.
func (o *Skip) RowsEmitted() int64 { return o.rows }

// Limit forwards at most n records, then reports end of stream without
// pulling its child again — the early exit that prunes upstream
// enumeration.
type Limit struct {
	child   Operator
	expr    ast.Expr
	ev      *expr.Evaluator
	n       int
	ready   bool
	applied bool // LIMIT 0 has run the update clauses below it
	st      opState
	rows    int64
	batches int64
}

// NewLimit builds a Limit over child.
func NewLimit(child Operator, e ast.Expr, ev *expr.Evaluator) *Limit {
	return &Limit{child: child, expr: e, ev: ev}
}

// Columns implements Operator.
func (o *Limit) Columns() []string { return o.child.Columns() }

// Open implements Operator.
func (o *Limit) Open() error {
	if err := o.st.open("Limit"); err != nil {
		return err
	}
	return o.child.Open()
}

// ensure evaluates the count expression once, on first pull.
func (o *Limit) ensure() error {
	if o.ready {
		return nil
	}
	v, err := o.ev.Eval(o.expr, expr.Env{})
	if err != nil {
		return err
	}
	l, ok := value.AsInt(v)
	if !ok || l < 0 {
		return fmt.Errorf("LIMIT expects a non-negative integer, got %s", v)
	}
	o.n, o.ready = int(l), true
	return nil
}

// Close implements Operator.
func (o *Limit) Close() {
	if !o.st.close() {
		return
	}
	o.child.Close()
}

// Name implements Operator.
func (o *Limit) Name() string {
	return fmt.Sprintf("Limit(%s)", o.expr.String()) + statsSuffix(o.rows, o.batches)
}

// Children implements Operator.
func (o *Limit) Children() []Operator { return []Operator{o.child} }

// RowsEmitted implements Operator.
func (o *Limit) RowsEmitted() int64 { return o.rows }

// ---------------------------------------------------------------------
// Barriers: Sort, Aggregate, Apply, Discard
// ---------------------------------------------------------------------

// Sort is a materialization barrier implementing ORDER BY as an
// external sort: rows accumulate in memory (keys computed at intake,
// which may reference pre-projection variables when rows carry their
// source environments — see Project.keepSrc); under a memory budget,
// full runs are sorted and spilled to temp files and replay is a k-way
// merge. A unique intake sequence number breaks ties, reproducing the
// stable in-memory order exactly. See fill/next1 in spill.go.
type Sort struct {
	child  Operator
	sorts  []*ast.SortItem
	ev     *expr.Evaluator
	budget *budget

	st      opState
	filled  bool
	mem     []spillRow
	memIdx  int
	runs    []*spillFile
	merged  *runMerger
	rows    int64
	batches int64
	held    int64
	peak    int64
	spills  int64
}

// NewSort builds a Sort barrier over child.
func NewSort(child Operator, sorts []*ast.SortItem, ev *expr.Evaluator) *Sort {
	return &Sort{child: child, sorts: sorts, ev: ev}
}

// Columns implements Operator.
func (o *Sort) Columns() []string { return o.child.Columns() }

// Open implements Operator.
func (o *Sort) Open() error {
	if err := o.st.open("Sort"); err != nil {
		return err
	}
	return o.child.Open()
}

// Close implements Operator. It releases the sort's state: any run
// files still on disk (early-LIMIT abandonment, errors) are removed
// and the accounted budget is returned.
func (o *Sort) Close() {
	if !o.st.close() {
		return
	}
	if o.merged != nil {
		o.merged.close()
		o.merged = nil
	}
	for _, f := range o.runs {
		f.discard()
	}
	o.runs = nil
	o.mem = nil
	o.budget.shrink(o.held)
	o.held = 0
	o.child.Close()
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
	return fmt.Sprintf("Sort[barrier](%s)", joinTrunc(parts, 50)) + barrierSuffix(o.rows, o.batches, o.peak, o.spills)
}

// Children implements Operator.
func (o *Sort) Children() []Operator { return []Operator{o.child} }

// RowsEmitted implements Operator.
func (o *Sort) RowsEmitted() int64 { return o.rows }

// PeakBytes reports the peak accounted intake memory.
func (o *Sort) PeakBytes() int64 { return o.peak }

// SpillRuns reports how many sorted runs were spilled to disk.
func (o *Sort) SpillRuns() int64 { return o.spills }

// Aggregate is a materialization barrier implementing grouped
// projection: records group by the non-aggregating items, aggregates
// accumulate per group, and one row per group is emitted in
// first-appearance order. Zero input records with no grouping keys
// produce the single global group (count(*) = 0).
type Aggregate struct {
	child  Operator
	items  []Item
	cols   []string
	ev     *expr.Evaluator
	budget *budget

	out  []expr.Env
	idx  int
	done bool

	st       opState
	rows     int64
	batches  int64
	spilling bool
	parts    []*spillFile
	held     int64
	peak     int64
	spills   int64
}

// NewAggregate builds an Aggregate barrier over child.
func NewAggregate(child Operator, items []Item, cols []string, ev *expr.Evaluator) *Aggregate {
	return &Aggregate{child: child, items: items, cols: cols, ev: ev}
}

// Columns implements Operator.
func (o *Aggregate) Columns() []string { return o.cols }

// Open implements Operator.
func (o *Aggregate) Open() error {
	if err := o.st.open("Aggregate"); err != nil {
		return err
	}
	return o.child.Open()
}

// fill (the spilling hash aggregation) lives in spill.go.

// Close implements Operator. It releases any spill state: partition
// files still on disk (early-LIMIT abandonment, errors) are removed
// and the accounted budget is returned.
func (o *Aggregate) Close() {
	if !o.st.close() {
		return
	}
	for _, p := range o.parts {
		p.discard()
	}
	o.parts = nil
	o.budget.shrink(o.held)
	o.held = 0
	o.child.Close()
}

// Name implements Operator.
func (o *Aggregate) Name() string {
	return "Aggregate[barrier]" + describeItems(o.items) + barrierSuffix(o.rows, o.batches, o.peak, o.spills)
}

// Children implements Operator.
func (o *Aggregate) Children() []Operator { return []Operator{o.child} }

// RowsEmitted implements Operator.
func (o *Aggregate) RowsEmitted() int64 { return o.rows }

// PeakBytes reports the peak accounted group-state memory.
func (o *Aggregate) PeakBytes() int64 { return o.peak }

// SpillRuns reports how many hash partitions were spilled and replayed.
func (o *Aggregate) SpillRuns() int64 { return o.spills }

// Apply is the update barrier: it materializes its child into a driving
// table (in stream order — exactly the table clause-at-a-time evaluation
// would hand the clause) and applies an update-clause function to it,
// then streams the clause's output table. The barrier is what preserves
// the legacy dialect's record-order-dependent semantics (Section 4,
// Example 3) and the revised dialect's two-phase ChangeSet semantics
// under the streaming executor.
type Apply struct {
	child Operator
	label string
	cols  []string
	fn    func(*table.Table) (*table.Table, error)

	out     *table.Table
	outIdx  int
	done    bool
	st      opState
	rows    int64
	batches int64
}

// NewApply builds an update barrier over child. cols is the planner's
// prediction of the clause's output columns; fn's result must match.
func NewApply(child Operator, label string, cols []string, fn func(*table.Table) (*table.Table, error)) *Apply {
	return &Apply{child: child, label: label, cols: cols, fn: fn}
}

// Columns implements Operator.
func (o *Apply) Columns() []string { return o.cols }

// Open implements Operator.
func (o *Apply) Open() error {
	if err := o.st.open("Update"); err != nil {
		return err
	}
	return o.child.Open()
}

// fill materializes the child batch-at-a-time (one row-slice
// allocation per record, no per-record map) and applies the update
// function, once. Stream order is preserved.
func (o *Apply) fill() error {
	if o.done {
		return nil
	}
	in := table.New(o.child.Columns()...)
	for {
		b, ok, err := o.child.NextBatch(BatchTarget)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		in.AppendColumns(b.vals, b.n)
	}
	out, err := o.fn(in)
	if err != nil {
		return err
	}
	got := out.Columns()
	if len(got) != len(o.cols) {
		return internalErrorf("%s produced columns %v, planner predicted %v", o.label, got, o.cols)
	}
	for i := range got {
		if got[i] != o.cols[i] {
			return internalErrorf("%s produced columns %v, planner predicted %v", o.label, got, o.cols)
		}
	}
	o.out, o.done = out, true
	return nil
}

// Close implements Operator.
func (o *Apply) Close() {
	if !o.st.close() {
		return
	}
	o.child.Close()
}

// Name implements Operator.
func (o *Apply) Name() string {
	return fmt.Sprintf("Update[barrier:writer-lock](%s)", o.label) + statsSuffix(o.rows, o.batches)
}

// Children implements Operator.
func (o *Apply) Children() []Operator { return []Operator{o.child} }

// RowsEmitted implements Operator.
func (o *Apply) RowsEmitted() int64 { return o.rows }

// Discard drains its child for effects and emits nothing: the plan of a
// query without RETURN, which outputs the empty zero-column table.
type Discard struct {
	child   Operator
	done    bool
	st      opState
	batches int64
}

// NewDiscard builds a Discard over child.
func NewDiscard(child Operator) *Discard { return &Discard{child: child} }

// Columns implements Operator.
func (o *Discard) Columns() []string { return nil }

// Open implements Operator.
func (o *Discard) Open() error {
	if err := o.st.open("Discard"); err != nil {
		return err
	}
	return o.child.Open()
}

// Close implements Operator.
func (o *Discard) Close() {
	if !o.st.close() {
		return
	}
	o.child.Close()
}

// Name implements Operator.
func (o *Discard) Name() string { return "Discard" + statsSuffix(0, o.batches) }

// Children implements Operator.
func (o *Discard) Children() []Operator { return []Operator{o.child} }

// RowsEmitted implements Operator.
func (o *Discard) RowsEmitted() int64 { return 0 }

// ---------------------------------------------------------------------
// Union
// ---------------------------------------------------------------------

// Union streams its members left to right: member i+1 is not pulled
// (and so none of its update barriers fire) until member i is
// exhausted, preserving the paper's sequential UNION semantics — each
// member sees the graph as modified by its predecessors (Section 8.2).
type Union struct {
	children []Operator
	idx      int
	st       opState
	rows     int64
	batches  int64
}

// NewUnion builds a Union. Members must agree on columns (checked by
// the builder).
func NewUnion(children []Operator) *Union { return &Union{children: children} }

// Columns implements Operator.
func (o *Union) Columns() []string { return o.children[0].Columns() }

// Open implements Operator.
func (o *Union) Open() error {
	if err := o.st.open("Union"); err != nil {
		return err
	}
	for _, c := range o.children {
		if err := c.Open(); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Operator.
func (o *Union) Close() {
	if !o.st.close() {
		return
	}
	for _, c := range o.children {
		c.Close()
	}
}

// Name implements Operator.
func (o *Union) Name() string {
	return fmt.Sprintf("Union(%d members)", len(o.children)) + statsSuffix(o.rows, o.batches)
}

// Children implements Operator.
func (o *Union) Children() []Operator { return o.children }

// RowsEmitted implements Operator.
func (o *Union) RowsEmitted() int64 { return o.rows }
