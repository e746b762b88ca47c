package plan

import (
	"fmt"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/value"
)

// BatchTarget is the default number of rows per batch. Consumers pass
// it to NextBatch unless they need fewer rows (LIMIT passes its
// remaining count so early exit keeps pruning upstream enumeration).
const BatchTarget = 256

// Batch is a columnar slice of records over an operator's column set:
// vals[j][r] is row r of column j, with absent values stored as
// explicit nulls (never nil), so a projected-away or optional-null
// variable reads exactly like a null table cell. A batch is produced by
// one operator and owned by its consumer; it is never reused after
// being handed off. A batch whose row count is unknown when it is
// started begins small (see demandCap) and grows by append. Driving
// tables and statement results store their rows in the same layout
// (see package table), so a scan emits views of its table's columns
// and Collect adopts its batches' columns.
//
// Expressions do not evaluate over a batch but over a slot row, a
// []value.Value laid out by the statement's ast.Names: an operator maps
// its input columns to slots once, at build, loads a batch row into its
// one reused row with Load, and a producer that binds into a row (a
// match, a CREATE) appends it back with AppendRow.
//
// A Project under ORDER BY carries the input columns no alias shadows
// as hidden trailing columns, sharing the input's column slices, so
// the Sort above can evaluate its keys over the pre-projection
// variables; the Sort emits only the projected prefix.
type Batch struct {
	cols []string
	vals [][]value.Value
	n    int
}

// NewBatch returns an empty batch over cols with room for capacity
// rows per column. The update clause functions build their output
// batches with it.
func NewBatch(cols []string, capacity int) *Batch {
	b := &Batch{cols: cols, vals: make([][]value.Value, len(cols))}
	for j := range b.vals {
		b.vals[j] = make([]value.Value, 0, capacity)
	}
	return b
}

// demandCap is the starting capacity of an output batch whose row
// count is not known in advance: the operator's previous batch size (1
// before its first), at most limit. append grows it from there.
func demandCap(last, limit int) int {
	return min(max(last, 1), limit)
}

// Len reports the number of rows in the batch.
func (b *Batch) Len() int { return b.n }

// Columns returns the column names, in order. The slice is shared.
func (b *Batch) Columns() []string { return b.cols }

// Value returns column j of row i.
func (b *Batch) Value(i, j int) value.Value { return b.vals[j][i] }

// Column returns column j's values, one per row. The slice is the
// batch's own storage: a write to a cell writes the batch. Only the
// owner of a batch may write it (the update barrier owns the batch it
// hands its clause function).
func (b *Batch) Column(j int) []value.Value { return b.vals[j] }

// AppendRow appends one row given as a slot row: column j takes the
// value row holds at slots[j], an unbound slot appending null.
func (b *Batch) AppendRow(row []value.Value, slots []int) {
	for j, s := range slots {
		v := row[s]
		if v == nil {
			v = nullValue
		}
		b.vals[j] = append(b.vals[j], v)
	}
	b.n++
}

// appendVals appends one row given as a value slice in column order.
// Values are shared; the slice itself is not retained.
func (b *Batch) appendVals(vals []value.Value) {
	for j := range b.cols {
		v := vals[j]
		if v == nil {
			v = nullValue
		}
		b.vals[j] = append(b.vals[j], v)
	}
	b.n++
}

// appendRowFrom appends row i of src, a batch over the same columns.
func (b *Batch) appendRowFrom(src *Batch, i int) {
	for j := range b.vals {
		b.vals[j] = append(b.vals[j], src.vals[j][i])
	}
	b.n++
}

// appendBatch appends all rows of src, a batch over the same columns,
// copying its values into b's own column slices.
func (b *Batch) appendBatch(src *Batch) {
	for j := range b.vals {
		b.vals[j] = append(b.vals[j], src.vals[j][:src.n]...)
	}
	b.n += src.n
}

// slice returns a view of rows [from, to) sharing column storage. The
// view's columns are capped at to, so an append to one cannot write
// the rows after it.
func (b *Batch) slice(from, to int) *Batch {
	out := &Batch{cols: b.cols, vals: make([][]value.Value, len(b.vals)), n: to - from}
	for j := range b.vals {
		out.vals[j] = b.vals[j][from:to:to]
	}
	return out
}

// Load makes row hold row i of the batch: slot slots[j] takes column
// j's value and every other slot is unbound. Operators and the update
// clause functions reuse one row across the rows of a batch: this is
// safe because nothing retains the row it is handed — an expression
// binder restores the slot it writes, and a match iterator copies the
// row into one of its own (match.Iter.Reset). Only the row's owner
// writes it (CREATE and MERGE bind the entities they create in place).
func (b *Batch) Load(row []value.Value, i int, slots []int) {
	clear(row)
	for j, s := range slots {
		row[s] = b.vals[j][i]
	}
}

// scratch is an operator's evaluation row over its input's columns.
type scratch struct {
	row   []value.Value
	slots []int // input column j's slot
}

func newScratch(ev *expr.Evaluator, cols []string) scratch {
	return scratch{row: ev.Row(), slots: ev.Names.Slots(cols)}
}

// load loads row i of b, a batch over the input's columns, and returns
// the row.
func (s *scratch) load(b *Batch, i int) []value.Value {
	b.Load(s.row, i, s.slots)
	return s.row
}

// loadVals loads a row given as values in input column order (none:
// every slot unbound).
func (s *scratch) loadVals(vals []value.Value) []value.Value {
	clear(s.row)
	for j, v := range vals {
		s.row[s.slots[j]] = v
	}
	return s.row
}

// input reads an operator's child row by row into the operator's
// evaluation row: b is the current input batch and i the index after
// the current row's.
type input struct {
	scratch
	b    *Batch
	i    int
	done bool
}

// next loads the child's next row, pulling a batch of up to max rows
// when the current one is used up; false means the child is exhausted.
func (in *input) next(child Operator, max int) (bool, error) {
	if in.b == nil || in.i >= in.b.n {
		if in.done {
			return false, nil
		}
		b, ok, err := child.NextBatch(max)
		if err != nil || !ok {
			in.done = err == nil
			return false, err
		}
		in.b, in.i = b, 0
	}
	in.load(in.b, in.i)
	in.i++
	return true, nil
}

// appendWith appends to out the current input row extended by v, an
// unbound v as null: the output row of Unwind and LoadCSV.
func (in *input) appendWith(out *Batch, v value.Value) {
	n := len(in.b.vals)
	for j := range n {
		out.vals[j] = append(out.vals[j], in.b.vals[j][in.i-1])
	}
	if v == nil {
		v = nullValue
	}
	out.vals[n] = append(out.vals[n], v)
	out.n++
}

// rowVals copies the first w columns of row i into a fresh value slice.
func (b *Batch) rowVals(i, w int) []value.Value {
	out := make([]value.Value, w)
	for j := range out {
		out[j] = b.vals[j][i]
	}
	return out
}

func clampMax(max int) int {
	if max < 1 {
		return 1
	}
	if max > BatchTarget {
		return BatchTarget
	}
	return max
}

// ---------------------------------------------------------------------
// Memory budget
// ---------------------------------------------------------------------

// budget tracks a statement's accounted barrier memory against a
// limit. One budget is shared by every barrier of a statement (union
// members included), so the barriers cannot each claim the full
// allowance. The counter is atomic, safe for concurrent accounting. A
// nil budget or a non-positive limit means unlimited: no accounting and
// no spilling, the default.
type budget struct {
	limit int64
	used  atomic.Int64
}

func newBudget(limit int64) *budget { return &budget{limit: limit} }

// limited reports whether accounting (and spilling) is enabled at all.
// The limit is immutable after newBudget, so this needs no atomics.
func (b *budget) limited() bool { return b != nil && b.limit > 0 }

func (b *budget) grow(n int64) {
	if b != nil {
		b.used.Add(n)
	}
}

func (b *budget) shrink(n int64) {
	if b != nil && b.used.Add(-n) < 0 {
		// Clamp at zero; a transient negative from a concurrent shrink
		// race only under-counts for the instant before the racing grow
		// lands, which is safe (spilling is best-effort bounding).
		for {
			cur := b.used.Load()
			if cur >= 0 || b.used.CompareAndSwap(cur, 0) {
				return
			}
		}
	}
}

func (b *budget) over() bool { return b.limited() && b.used.Load() > b.limit }

// memAccount is one barrier's share of the statement budget: the bytes
// it holds now, their peak, and the runs or partitions it spilled. Sort,
// Aggregate and Distinct embed one. Callers charge only when
// budget.limited(), so a run without a budget does no accounting. The
// counters are atomic, safe for concurrent charging and reading.
type memAccount struct {
	budget *budget
	held   atomic.Int64
	peak   atomic.Int64
	spills atomic.Int64
}

// charge accounts n more held bytes against the budget.
func (m *memAccount) charge(n int64) {
	m.budget.grow(n)
	h := m.held.Add(n)
	for p := m.peak.Load(); h > p && !m.peak.CompareAndSwap(p, h); p = m.peak.Load() {
	}
}

// release returns n held bytes to the budget.
func (m *memAccount) release(n int64) {
	m.budget.shrink(n)
	m.held.Add(-n)
}

// releaseAll returns everything still held (barriers call it on Close).
func (m *memAccount) releaseAll() { m.budget.shrink(m.held.Swap(0)) }

// PeakBytes reports the barrier's peak accounted memory.
func (m *memAccount) PeakBytes() int64 { return m.peak.Load() }

// SpillRuns reports how many sorted runs (Sort) or hash partitions
// (Aggregate, Distinct) the barrier spilled.
func (m *memAccount) SpillRuns() int64 { return m.spills.Load() }

// ---------------------------------------------------------------------
// EXPLAIN statistics
// ---------------------------------------------------------------------

// statsSuffix renders the per-operator execution counters appended to
// Name(). Before execution both counters are zero and the suffix is
// empty, so a plain (non-executing) EXPLAIN renders exactly as before.
func statsSuffix(rows, batches int64) string {
	if rows == 0 && batches == 0 {
		return ""
	}
	return fmt.Sprintf(" {rows=%d batches=%d}", rows, batches)
}

// barrierSuffix additionally renders the barrier's peak accounted
// memory and spill-run count when a memory budget was in force.
func barrierSuffix(rows, batches, peak, spills int64) string {
	if peak == 0 && spills == 0 {
		return statsSuffix(rows, batches)
	}
	if rows == 0 && batches == 0 && peak == 0 && spills == 0 {
		return ""
	}
	return fmt.Sprintf(" {rows=%d batches=%d peak=%s spill-runs=%d}", rows, batches, humanBytes(peak), spills)
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ---------------------------------------------------------------------
// NextBatch: sources
// ---------------------------------------------------------------------

// NextBatch implements Operator: the unit table's single empty row as
// a zero-column batch.
func (o *Unit) NextBatch(max int) (*Batch, bool, error) {
	if o.done {
		return nil, false, nil
	}
	o.done = true
	b := NewBatch(nil, 1)
	b.n = 1
	return o.emit(b)
}

// NextBatch implements Operator: rows [pos, end) of the table, as a
// view of its columns with no copy.
func (o *TableScan) NextBatch(max int) (*Batch, bool, error) {
	if o.pos >= o.end {
		return nil, false, nil
	}
	end := min(o.pos+clampMax(max), o.end)
	b := o.all.slice(o.pos, end)
	o.pos = end
	return o.emit(b)
}

// ---------------------------------------------------------------------
// NextBatch: Match
// ---------------------------------------------------------------------

// NextBatch implements Operator. Each input row, loaded into one
// reused row, resets the operator's match iterator, which fills the
// output batch with up to the rows it still needs, on this goroutine;
// each match is appended straight into the output columns from the
// iterator's live row. Input is pulled with the consumer's max so a
// LIMIT above still bounds enumeration.
func (o *Match) NextBatch(max int) (*Batch, bool, error) {
	max = clampMax(max)
	out := NewBatch(o.cols, demandCap(o.last, max))
	o.out = out
	for out.n < max {
		if o.it.Done() {
			ok, err := o.in.next(o.child, max)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			o.emitted = 0
			o.it.Reset(o.matcher, o.cl.Pattern, o.in.row, o.ap)
		}
		n, err := o.it.Next(max-out.n, o.sink)
		if err != nil {
			return nil, false, err
		}
		o.emitted += n
		if o.it.Done() && o.cl.Optional && o.emitted == 0 {
			// AppendRow fills the unbound pattern variables with nulls.
			out.AppendRow(o.in.row, o.outSlots)
		}
	}
	return o.emit(out)
}

// ---------------------------------------------------------------------
// NextBatch: Unwind / LoadCSV
// ---------------------------------------------------------------------

// NextBatch implements Operator: output rows are written straight into
// the output columns — the input row's values are copied columnar — and
// the list expression is evaluated once per input row over a reused
// row. A null list contributes nothing and a non-list value unwinds as
// a single element.
func (o *Unwind) NextBatch(max int) (*Batch, bool, error) {
	max = clampMax(max)
	out := NewBatch(o.cols, demandCap(o.last, max))
	for out.n < max {
		if o.idx < len(o.elems) {
			take := min(len(o.elems)-o.idx, max-out.n)
			for _, v := range o.elems[o.idx : o.idx+take] {
				o.in.appendWith(out, v)
			}
			o.idx += take
			continue
		}
		ok, err := o.in.next(o.child, max)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		v, err := o.ev.Eval(o.cl.Expr, o.in.row)
		if err != nil {
			return nil, false, err
		}
		switch lv := v.(type) {
		case value.Null:
			// contributes no rows
		case value.List:
			o.elems, o.idx = lv, 0
		default:
			o.elems, o.idx = value.List{v}, 0
		}
	}
	return o.emit(out)
}

// NextBatch implements Operator: each CSV data row is written straight
// into the output columns next to a columnar copy of the input row that
// opened the file. Rows are read from the file one at a time, only
// until the batch is full, so early exit stops reading mid-file.
func (o *LoadCSV) NextBatch(max int) (*Batch, bool, error) {
	max = clampMax(max)
	out := NewBatch(o.cols, demandCap(o.last, max))
	for out.n < max {
		if o.reader != nil {
			v, ok, err := o.reader.Next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				o.in.appendWith(out, v)
				continue
			}
			o.reader.Close()
			o.reader = nil
		}
		ok, err := o.in.next(o.child, max)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		urlVal, err := o.ev.Eval(o.cl.URL, o.in.row)
		if err != nil {
			return nil, false, err
		}
		url, oks := value.AsString(urlVal)
		if !oks {
			return nil, false, fmt.Errorf("LOAD CSV FROM expects a string, got %s", urlVal.Kind())
		}
		r, err := OpenCSV(string(url), o.cl.FieldTerm, o.cl.WithHeaders)
		if err != nil {
			return nil, false, err
		}
		o.reader = r
	}
	return o.emit(out)
}

// ---------------------------------------------------------------------
// NextBatch: Filter / Project / Skip / Limit
// ---------------------------------------------------------------------

// NextBatch implements Operator. The predicate is evaluated over a row
// reused across rows; a batch that passes in full is forwarded without
// copying.
func (o *Filter) NextBatch(max int) (*Batch, bool, error) {
	for {
		in, ok, err := o.child.NextBatch(max)
		if err != nil || !ok {
			return nil, false, err
		}
		sel := o.selbuf[:0]
		for i := 0; i < in.n; i++ {
			keep, err := o.ev.EvalBool(o.pred, o.sc.load(in, i))
			if err != nil {
				return nil, false, err
			}
			if keep == value.True {
				sel = append(sel, i)
			}
		}
		o.selbuf = sel
		if len(sel) == 0 {
			continue
		}
		if len(sel) == in.n {
			return o.emit(in)
		}
		out := NewBatch(in.cols, len(sel))
		for _, i := range sel {
			out.appendRowFrom(in, i)
		}
		return o.emit(out)
	}
}

// NextBatch implements Operator. Items are evaluated over a row reused
// across rows and written straight into fresh output columns; the
// hidden columns after them are the input's own column slices, shared
// with no copy.
func (o *Project) NextBatch(max int) (*Batch, bool, error) {
	in, ok, err := o.child.NextBatch(max)
	if err != nil || !ok {
		return nil, false, err
	}
	out := &Batch{cols: o.cols, vals: make([][]value.Value, len(o.cols)), n: in.n}
	for j := range o.items {
		out.vals[j] = make([]value.Value, in.n)
	}
	for i := 0; i < in.n; i++ {
		row := o.sc.load(in, i)
		for j, it := range o.items {
			v, err := o.ev.Eval(it.Expr, row)
			if err != nil {
				return nil, false, err
			}
			if v == nil {
				v = nullValue
			}
			out.vals[j][i] = v
		}
	}
	for k, j := range o.hidden {
		out.vals[len(o.items)+k] = in.vals[j]
	}
	return o.emit(out)
}

// NextBatch implements Operator. The skip phase pulls batches sized to
// the remaining skip count, so the child hands out no more rows than
// the skipped ones plus those this pull returns.
func (o *Skip) NextBatch(max int) (*Batch, bool, error) {
	if !o.skipped {
		rem, err := o.cnt.eval()
		if err != nil {
			return nil, false, countErr(o.child, err)
		}
		o.skipped = true
		for rem > 0 {
			want := rem
			if want > BatchTarget {
				want = BatchTarget
			}
			if m := clampMax(max); want < m {
				want = m
			}
			b, ok, err := o.child.NextBatch(want)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, nil
			}
			if b.n <= rem {
				rem -= b.n
				continue
			}
			return o.emit(b.slice(rem, b.n))
		}
	}
	b, ok, err := o.child.NextBatch(max)
	if err != nil || !ok {
		return nil, false, err
	}
	return o.emit(b)
}

// NextBatch implements Operator. The child is pulled with the
// remaining row allowance, so upstream operators (Match enumeration in
// particular) never do more than one batch of excess work.
func (o *Limit) NextBatch(max int) (*Batch, bool, error) {
	n, err := o.cnt.eval()
	if err != nil {
		return nil, false, countErr(o.child, err)
	}
	rem := int64(n) - o.rows
	if rem <= 0 {
		if n == 0 && !o.applied {
			// LIMIT 0 keeps no rows, but the update clauses below it still
			// apply in full.
			o.applied = true
			return nil, false, applyUpdates(o.child)
		}
		return nil, false, nil
	}
	want := clampMax(max)
	if int64(want) > rem {
		want = int(rem)
	}
	b, ok, err := o.child.NextBatch(want)
	if err != nil || !ok {
		return nil, false, err
	}
	if int64(b.n) > rem {
		b = b.slice(0, int(rem))
	}
	return o.emit(b)
}

// ---------------------------------------------------------------------
// NextBatch: barriers
// ---------------------------------------------------------------------

// NextBatch implements Operator, replaying the externally sorted
// stream in batches.
func (o *Sort) NextBatch(max int) (*Batch, bool, error) {
	if !o.filled {
		if err := o.fill(); err != nil {
			return nil, false, err
		}
		o.filled = true
	}
	return o.replay(o.spill.merged, max)
}

// NextBatch implements Operator, emitting the finalized groups as
// views of the output batch, with no copy, or, after an overflow, the
// merge of that batch's rows with the spilled groups.
func (o *Aggregate) NextBatch(max int) (*Batch, bool, error) {
	if o.out == nil {
		if err := o.fill(); err != nil {
			return nil, false, err
		}
	}
	if o.spill.merged != nil {
		return o.replay(o.spill.merged, max)
	}
	if o.idx >= o.out.n {
		return nil, false, nil
	}
	end := min(o.idx+clampMax(max), o.out.n)
	b := o.out.slice(o.idx, end)
	o.idx = end
	return o.emit(b)
}

// NextBatch implements Operator, emitting the update's output batch as
// views of its rows, with no copy.
func (o *Apply) NextBatch(max int) (*Batch, bool, error) {
	if err := o.fill(); err != nil {
		return nil, false, err
	}
	if o.outIdx >= o.out.n {
		return nil, false, nil
	}
	end := min(o.outIdx+clampMax(max), o.out.n)
	b := o.out.slice(o.outIdx, end)
	o.outIdx = end
	return o.emit(b)
}

// applyUpdates runs the update barriers in op's subtree that have not
// run yet, without pulling the read operators above them. SKIP and
// LIMIT use it where they would otherwise never pull their input: an
// update applies in full whatever a later clause keeps of its output,
// as composing the clauses one at a time does (Section 8.2), while the
// reads after the last update stay lazy.
func applyUpdates(op Operator) error {
	if a, ok := op.(*Apply); ok {
		return a.fill()
	}
	for _, c := range op.Children() {
		if err := applyUpdates(c); err != nil {
			return err
		}
	}
	return nil
}

// countErr reports a bad SKIP or LIMIT count after the update clauses
// below it have run, so their own errors come first.
func countErr(child Operator, err error) error {
	if uerr := applyUpdates(child); uerr != nil {
		return uerr
	}
	return err
}

// NextBatch implements Operator: the child is drained batch-at-a-time
// for effects, emitting nothing.
func (o *Discard) NextBatch(max int) (*Batch, bool, error) {
	if o.done {
		return nil, false, nil
	}
	o.done = true
	for {
		_, ok, err := o.child.NextBatch(BatchTarget)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		o.batches++
	}
}

// NextBatch implements Operator, streaming members left to right.
// Member batches are forwarded as-is when the member's column order
// matches the union's, and re-mapped otherwise.
func (o *Union) NextBatch(max int) (*Batch, bool, error) {
	for o.idx < len(o.children) {
		b, ok, err := o.children[o.idx].NextBatch(max)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			o.idx++
			continue
		}
		if o.idx > 0 {
			b = remapBatch(b, o.cols)
		}
		return o.emit(b)
	}
	return nil, false, nil
}

// remapBatch reorders a batch's columns to the given order (a
// permutation of its own). Shares column storage; no copying.
func remapBatch(b *Batch, cols []string) *Batch {
	same := len(cols) == len(b.cols)
	if same {
		for j := range cols {
			if cols[j] != b.cols[j] {
				same = false
				break
			}
		}
	}
	if same {
		return b
	}
	out := &Batch{cols: cols, vals: make([][]value.Value, len(cols)), n: b.n}
	for j, c := range cols {
		for k, bc := range b.cols {
			if bc == c {
				out.vals[j] = b.vals[k]
				break
			}
		}
	}
	return out
}
