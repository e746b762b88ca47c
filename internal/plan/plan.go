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
//     Example 3), so the barrier drains its input into one columnar
//     batch of its own, in exactly the order the stream produced, and
//     hands it to the update function, which returns the clause's
//     output batch; the revised dialect's two-phase ChangeSet semantics
//     needs the whole table for conflict detection anyway. LIMIT never
//     stops an update: a LIMIT 0 still applies the update barriers
//     below it.
//
// Row order is deterministic end to end: every streaming operator
// preserves its input order and the pull discipline reproduces the
// nested-loop order of clause-at-a-time evaluation, so the paper's
// record-order reproductions (ScanOrder, Example 3) are unaffected.
//
// Operators are pulled with NextBatch: columnar batches of up to a
// requested row count (see Batch in batch.go). Batches amortize per-row
// overhead (operator calls, map allocation), and a consumer that
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
	"strings"

	"repro/internal/table"
)

// Operator is a streaming operator: a cursor over records. The contract
// is build, then NextBatch until it reports no batch, then Close: a
// built tree is ready to pull, and all effects and errors of execution
// surface in NextBatch. A tree runs once. Close must be called even
// after an error or without any pull (it releases spill files, open
// CSV readers and child resources).
type Operator interface {
	// Columns is the output column set, in order, known at build time.
	Columns() []string
	// NextBatch returns the next batch of 1..max records; ok=false means
	// end of stream (an empty batch is never returned with ok=true).
	NextBatch(max int) (b *Batch, ok bool, err error)
	// Close releases resources, cascading to children. Idempotent.
	Close()
	// Name is a one-line description for EXPLAIN output.
	Name() string
	// Children returns the operator's inputs, for plan inspection.
	Children() []Operator
}

// Collect executes a plan to completion, materializing its output into
// a table (the engine's statement boundary). Close is always called.
// The table adopts the first batch's columns and appends the later
// batches' to them, so nothing is allocated per row.
func Collect(root Operator) (*table.Table, error) {
	defer root.Close()
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
