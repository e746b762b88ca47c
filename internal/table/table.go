// Package table implements driving tables: the bags of consistent records
// that Cypher clauses consume and produce (Section 2 of the paper). A
// record maps a fixed set of column names to values; a table is an ordered
// bag of such records.
//
// A table stores its records column by column, in the layout of the
// executor's batches (plan.Batch): one value slice per column, every
// cell an explicit value (absent values are nulls, never nil). A scan
// hands out views of those slices and the executor's result collection
// adopts its batches' slices, so rows cross the statement boundary in
// either direction without being copied.
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
	"slices"
	"strings"

	"repro/internal/value"
)

// Table is a bag of records over a fixed column set: vals[j][i] is
// record i's value in column j.
type Table struct {
	cols []string
	vals [][]value.Value
	n    int
}

// New returns an empty table with the given columns.
func New(cols ...string) *Table {
	for i, c := range cols {
		if slices.Contains(cols[:i], c) {
			panic(fmt.Sprintf("table: duplicate column %q", c))
		}
	}
	return &Table{cols: slices.Clone(cols), vals: make([][]value.Value, len(cols))}
}

// Columns returns the column names in order.
func (t *Table) Columns() []string { return slices.Clone(t.cols) }

// Len reports the number of records.
func (t *Table) Len() int { return t.n }

// Column returns column j's values, one per record. The slice is the
// table's storage, capped at Len: callers read it and never write it.
func (t *Table) Column(j int) []value.Value { return t.vals[j][:t.n:t.n] }

// AppendRow adds a record given as a value slice in column order.
// The values are copied; nil becomes null.
func (t *Table) AppendRow(vals ...value.Value) {
	if len(vals) != len(t.cols) {
		panic(fmt.Sprintf("table: row width %d != %d columns", len(vals), len(t.cols)))
	}
	for j, v := range vals {
		if v == nil {
			v = value.NullValue
		}
		t.vals[j] = append(t.vals[j], v)
	}
	t.n++
}

// AppendColumns adds n records given as columns in the table's column
// order (cols[j][r] is record r's value in column j), none of them nil.
// An empty table adopts the column slices instead of copying them, so
// the caller must not write them afterwards; a later append to the
// table copies them first, since each is capped at n.
func (t *Table) AppendColumns(cols [][]value.Value, n int) {
	if len(cols) != len(t.cols) {
		panic(fmt.Sprintf("table: batch width %d != %d columns", len(cols), len(t.cols)))
	}
	for j, c := range cols {
		if t.n == 0 {
			t.vals[j] = c[:n:n]
		} else {
			t.vals[j] = append(t.vals[j], c[:n]...)
		}
	}
	t.n += n
}

// Get returns the value of the named column in row i (null for a missing
// column, which arises when legacy FOREACH bodies reference outer rows).
func (t *Table) Get(i int, col string) value.Value {
	j := slices.Index(t.cols, col)
	if j < 0 {
		return value.NullValue
	}
	return t.vals[j][i]
}

// Values returns row i as a value slice in column order (not aliased).
func (t *Table) Values(i int) []value.Value {
	out := make([]value.Value, len(t.cols))
	for j := range t.cols {
		out[j] = t.vals[j][i]
	}
	return out
}

// Clone returns a copy of the table with columns of its own (the values
// are shared).
func (t *Table) Clone() *Table {
	c := New(t.cols...)
	for j := range t.vals {
		c.vals[j] = slices.Clone(t.Column(j))
	}
	c.n = t.n
	return c
}

// Reverse reverses the row order (the "bottom-up" evaluation order of
// Example 3).
func (t *Table) Reverse() {
	perm := make([]int, t.n)
	for i := range perm {
		perm[i] = t.n - 1 - i
	}
	t.Permute(perm)
}

// Permute reorders rows by the given permutation of indices: row i
// becomes old row perm[i]. The table gets new column slices, so a
// table sharing this one's storage (a statement result over a driving
// table) is never written.
func (t *Table) Permute(perm []int) {
	if len(perm) != t.n {
		panic("table: bad permutation length")
	}
	for j, col := range t.vals {
		out := make([]value.Value, t.n)
		for i, p := range perm {
			out[i] = col[p]
		}
		t.vals[j] = out
	}
}

// String renders the table for debugging and the REPL.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.cols, " | "))
	sb.WriteString("\n")
	parts := make([]string, len(t.cols))
	for i := 0; i < t.n; i++ {
		for j := range t.cols {
			parts[j] = t.vals[j][i].String()
		}
		sb.WriteString(strings.Join(parts, " | "))
		sb.WriteString("\n")
	}
	return sb.String()
}
