// Package plan lowers parsed Cypher statements into trees of streaming
// operators and executes them with a cursor (Volcano-style pull) model
// over columnar row batches.
//
// The paper's clause semantics [[C]] : (G, T) -> (G', T') composes
// clauses as functions over whole driving tables. Operationally that
// composition does not require materializing every intermediate table:
// read-only clauses (MATCH, UNWIND, WITH/RETURN projections, WHERE,
// SKIP/LIMIT, DISTINCT) are linear in the records they consume and can
// stream a batch at a time, which makes LIMIT-style early exit prune
// the pattern-match search space instead of enumerating it fully.
//
// Two kinds of operators deliberately break the stream with an explicit
// materialization barrier:
//
//   - Sort and Aggregate, which need the whole input by definition; and
//   - Apply, which wraps an update clause (CREATE, SET, REMOVE, DELETE,
//     MERGE, FOREACH). Updates consume their entire driving table before
//     any downstream clause runs, in both dialects: the legacy Cypher 9
//     semantics is record-order dependent (the paper's Section 4,
//     Example 3), so the barrier hands the update function a fully
//     materialized table in exactly the order the stream produced, and
//     the revised dialect's two-phase ChangeSet semantics needs the full
//     table for conflict detection anyway. LIMIT never stops an update:
//     a LIMIT 0 still applies the update barriers below it.
//
// Row order is deterministic end to end: every streaming operator
// preserves its input order and the pull discipline reproduces the
// nested-loop order of clause-at-a-time evaluation, so the paper's
// record-order reproductions (ScanOrder, Example 3) are unaffected.
//
// Operators are pulled with NextBatch: columnar batches of up to a
// requested row count (see Batch in batch.go). Batches amortize per-row
// overhead (map allocation, coroutine switches), and a consumer that
// needs only a few rows (LIMIT) requests only that many, so early exit
// still bounds upstream work.
//
// Barriers account the bytes they hold against an optional per-
// statement memory budget (see Builder.MemoryBudget): when over
// budget, Sort spills sorted runs to temp files and merges them back,
// and Aggregate/Distinct cap their hash state and spill overflow keys
// to hash partitions processed one at a time. Results — including row
// order and DISTINCT's first-occurrence choice — are identical with
// and without spilling; only peak memory changes.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/table"
)

// Operator is a streaming operator: a cursor over records. The contract
// is Open, then NextBatch until it reports no batch, then Close.
// Operators are single-use; Close must be called even after an error
// (it releases match cursors and child resources).
type Operator interface {
	// Columns is the output column set, in order, known at build time.
	Columns() []string
	// Open prepares the operator and its children. It performs no work
	// on the graph: all effects and errors of execution surface in
	// NextBatch.
	Open() error
	// NextBatch returns the next batch of 1..max records; ok=false means
	// end of stream (an empty batch is never returned with ok=true).
	NextBatch(max int) (b *Batch, ok bool, err error)
	// Close releases resources, cascading to children. Idempotent.
	Close()
	// Name is a one-line description for EXPLAIN output.
	Name() string
	// Children returns the operator's inputs, for plan inspection.
	Children() []Operator
	// RowsEmitted reports how many records NextBatch has returned so
	// far, making early-exit behaviour observable in tests and EXPLAIN.
	RowsEmitted() int64
}

// Collect executes a plan to completion, materializing its output into
// a table (the engine's statement boundary). Close is always called.
// It pulls columnar batches and appends them without per-row map
// allocation.
func Collect(root Operator) (*table.Table, error) {
	defer root.Close()
	if err := root.Open(); err != nil {
		return nil, err
	}
	out := table.New(root.Columns()...)
	for {
		b, ok, err := root.NextBatch(BatchTarget)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out.AppendColumns(b.vals, b.n)
	}
}

// Explain renders the operator tree, one operator per line, children
// indented under their parent.
func Explain(root Operator) string {
	var sb strings.Builder
	var rec func(op Operator, prefix string, childPrefix string)
	rec = func(op Operator, prefix, childPrefix string) {
		sb.WriteString(prefix)
		sb.WriteString(op.Name())
		sb.WriteString("\n")
		kids := op.Children()
		for i, k := range kids {
			if i == len(kids)-1 {
				rec(k, childPrefix+"└─ ", childPrefix+"   ")
			} else {
				rec(k, childPrefix+"├─ ", childPrefix+"│  ")
			}
		}
	}
	rec(root, "", "")
	return strings.TrimRight(sb.String(), "\n")
}

// internalErrorf marks invariant violations of the planner itself
// (e.g. an update clause producing columns the planner did not
// predict); user-level errors never use it.
func internalErrorf(format string, args ...any) error {
	return fmt.Errorf("plan: internal error: "+format, args...)
}
