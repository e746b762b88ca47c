// Package table implements driving tables: the bags of consistent records
// that Cypher clauses consume and produce (Section 2 of the paper). A
// record maps a fixed set of column names to values; a table is an ordered
// bag of such records.
//
// Although tables are semantically unordered bags, the implementation
// keeps an explicit row order: the legacy Cypher 9 semantics processes
// updates record by record, and the paper's Example 3 shows that the
// *choice* of that order changes the result. Making the order explicit
// (and controllable via ScanOrder in the engine) is what lets the
// experiments demonstrate the nondeterminism deterministically.
package table

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Table is a bag of records over a fixed column set.
type Table struct {
	cols   []string
	colIdx map[string]int
	rows   [][]value.Value
}

// New returns an empty table with the given columns.
func New(cols ...string) *Table {
	t := &Table{cols: append([]string(nil), cols...), colIdx: make(map[string]int, len(cols))}
	for i, c := range t.cols {
		if _, dup := t.colIdx[c]; dup {
			panic(fmt.Sprintf("table: duplicate column %q", c))
		}
		t.colIdx[c] = i
	}
	return t
}

// Unit returns the table containing a single empty record T(), the
// starting point of query evaluation (Section 8.1).
func Unit() *Table {
	t := New()
	t.rows = append(t.rows, nil)
	return t
}

// Columns returns the column names in order.
func (t *Table) Columns() []string { return append([]string(nil), t.cols...) }

// HasColumn reports whether the column exists.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.colIdx[name]
	return ok
}

// Len reports the number of records.
func (t *Table) Len() int { return len(t.rows) }

// AppendRow adds a record given as a value slice in column order.
// The row is copied.
func (t *Table) AppendRow(vals ...value.Value) {
	if len(vals) != len(t.cols) {
		panic(fmt.Sprintf("table: row width %d != %d columns", len(vals), len(t.cols)))
	}
	row := make([]value.Value, len(vals))
	for i, v := range vals {
		if v == nil {
			v = value.NullValue
		}
		row[i] = v
	}
	t.rows = append(t.rows, row)
}

// AppendColumns adds n records given as columnar slices (cols[j][r] is
// row r of column j, matching the table's column order), transposing
// into the table's row-major layout. This is the batch append used by
// the vectorized executor's Collect: one row-slice allocation per
// record, no per-record map.
func (t *Table) AppendColumns(cols [][]value.Value, n int) {
	if len(cols) != len(t.cols) {
		panic(fmt.Sprintf("table: batch width %d != %d columns", len(cols), len(t.cols)))
	}
	for r := 0; r < n; r++ {
		row := make([]value.Value, len(cols))
		for j := range cols {
			v := cols[j][r]
			if v == nil {
				v = value.NullValue
			}
			row[j] = v
		}
		t.rows = append(t.rows, row)
	}
}

// ReadColumns appends rows [from, to) to dst, a columnar buffer with
// one slice per column in table order (dst[j] receives column j's
// values). This is the batch read used by the vectorized table scan:
// values are appended without per-row map or slice allocation. Nil
// cells are surfaced as null, matching Get.
func (t *Table) ReadColumns(from, to int, dst [][]value.Value) {
	if len(dst) != len(t.cols) {
		panic(fmt.Sprintf("table: batch width %d != %d columns", len(dst), len(t.cols)))
	}
	for i := from; i < to; i++ {
		row := t.rows[i]
		for j := range dst {
			v := row[j]
			if v == nil {
				v = value.NullValue
			}
			dst[j] = append(dst[j], v)
		}
	}
}

// Get returns the value of the named column in row i (null for a missing
// column, which arises when legacy FOREACH bodies reference outer rows).
func (t *Table) Get(i int, col string) value.Value {
	j, ok := t.colIdx[col]
	if !ok {
		return value.NullValue
	}
	v := t.rows[i][j]
	if v == nil {
		return value.NullValue
	}
	return v
}

// Set overwrites the value of the named column in row i.
func (t *Table) Set(i int, col string, v value.Value) {
	j, ok := t.colIdx[col]
	if !ok {
		panic(fmt.Sprintf("table: no column %q", col))
	}
	if v == nil {
		v = value.NullValue
	}
	t.rows[i][j] = v
}

// Values returns row i as a value slice in column order (not aliased).
func (t *Table) Values(i int) []value.Value {
	out := make([]value.Value, len(t.cols))
	for j := range t.cols {
		v := t.rows[i][j]
		if v == nil {
			v = value.NullValue
		}
		out[j] = v
	}
	return out
}

// Clone returns a deep copy of the table structure (values are shared,
// rows are not).
func (t *Table) Clone() *Table {
	n := New(t.cols...)
	n.rows = make([][]value.Value, len(t.rows))
	for i, r := range t.rows {
		n.rows[i] = append([]value.Value(nil), r...)
	}
	return n
}

// Reverse reverses the row order in place (the "bottom-up" evaluation
// order of Example 3).
func (t *Table) Reverse() {
	for i, j := 0, len(t.rows)-1; i < j; i, j = i+1, j-1 {
		t.rows[i], t.rows[j] = t.rows[j], t.rows[i]
	}
}

// Permute reorders rows by the given permutation of indices.
func (t *Table) Permute(perm []int) {
	if len(perm) != len(t.rows) {
		panic("table: bad permutation length")
	}
	out := make([][]value.Value, len(t.rows))
	for i, p := range perm {
		out[i] = t.rows[p]
	}
	t.rows = out
}

// String renders the table for debugging and the REPL.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.cols, " | "))
	sb.WriteString("\n")
	for i := range t.rows {
		var parts []string
		for j := range t.cols {
			v := t.rows[i][j]
			if v == nil {
				v = value.NullValue
			}
			parts = append(parts, v.String())
		}
		sb.WriteString(strings.Join(parts, " | "))
		sb.WriteString("\n")
	}
	return sb.String()
}
