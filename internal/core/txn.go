package core

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/value"
)

// Session executes statements against a graph.Store with transactional
// semantics. Every statement runs inside a transaction:
//
//   - By default each statement is its own implicit transaction
//     (auto-commit): an updating statement acquires the store's writer
//     baton, runs under a journal, and commits (or rolls back) at the
//     statement boundary — observably identical to the pre-session
//     engine, including the commit-time dangling-relationship check. A
//     read-only statement instead pins the latest committed snapshot
//     and streams from it with no lock held, so any number of sessions
//     read concurrently while a writer works.
//
//   - BEGIN opens an explicit transaction: the session holds the writer
//     baton until COMMIT publishes a new epoch or ROLLBACK discards the
//     transaction. Statements inside the transaction (reads included)
//     run against the transaction's working graph and see its
//     uncommitted writes; other sessions keep reading the last
//     committed epoch. A failing statement inside the transaction is
//     rolled back to its own start (the journal mark), leaving the
//     transaction open with its earlier statements intact — the
//     statement-level atomicity of the paper, nested in the
//     transaction-level atomicity of the store.
//
// A Session is not safe for concurrent use by multiple goroutines; use
// one session per goroutine (sessions of the same store coordinate
// through the store's locks).
type Session struct {
	e     *Engine
	store *graph.Store
	txn   *Txn // non-nil while an explicit transaction is open
}

// NewSession returns a session executing on store with e's semantics.
func NewSession(e *Engine, store *graph.Store) *Session {
	return &Session{e: e, store: store}
}

// Engine returns the engine the session executes with.
func (s *Session) Engine() *Engine { return s.e }

// Parse parses query through the engine's shared statement cache, so
// every session of one engine receives the same AST for the same text.
func (s *Session) Parse(query string) (*ast.Statement, error) { return s.e.Parse(query) }

// Txn is an open explicit transaction: the store's write transaction
// (working graph + spanning journal) plus the session-level bookkeeping.
type Txn struct {
	w *graph.WriteTxn
	// stats accumulates the update counts of the transaction's
	// statements, reported by Commit.
	stats UpdateStats
}

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool { return s.txn != nil }

// Execute runs one statement — a query or BEGIN/COMMIT/ROLLBACK —
// inside the session's current transaction context.
func (s *Session) Execute(stmt *ast.Statement, params map[string]value.Value) (*Result, error) {
	return s.ExecuteWithTable(stmt, params, nil)
}

// ExecuteWithTable is Execute with an explicit initial driving table
// (nil means the unit table).
func (s *Session) ExecuteWithTable(stmt *ast.Statement, params map[string]value.Value, t0 *table.Table) (*Result, error) {
	if stmt.TxnControl != ast.TxnNone {
		return s.executeTxnControl(stmt.TxnControl)
	}
	if !s.e.cfg.skipValidation {
		if err := Validate(stmt, s.e.cfg.Dialect); err != nil {
			return nil, err
		}
	}
	if params == nil {
		params = map[string]value.Value{}
	}
	if s.txn != nil {
		return s.executeInTxn(stmt, params, t0)
	}
	if !stmt.Updating() {
		return s.executeReadOnly(stmt, params, t0)
	}
	return s.executeAutoCommit(stmt, params, t0)
}

// executeTxnControl handles BEGIN/COMMIT/ROLLBACK. The result of each
// is an empty table; COMMIT reports the transaction's accumulated
// update statistics.
func (s *Session) executeTxnControl(ctl ast.TxnControl) (*Result, error) {
	empty := &Result{Table: table.New()}
	switch ctl {
	case ast.TxnBegin:
		if s.txn != nil {
			return nil, fmt.Errorf("BEGIN: a transaction is already open (COMMIT or ROLLBACK it first)")
		}
		// Acquiring the writer baton up front makes the transaction a
		// writer transaction for its whole lifetime: the simplest
		// serialization that still lets every other session read the
		// last committed epoch concurrently. The isolated (always-clone)
		// variant keeps readers unblocked for however long the
		// transaction stays open.
		s.txn = &Txn{w: s.store.BeginWriteIsolated()}
		return empty, nil
	case ast.TxnCommit:
		if s.txn == nil {
			return nil, fmt.Errorf("COMMIT: no open transaction")
		}
		empty.Stats = s.txn.stats
		_, err := s.txn.w.Commit()
		s.txn = nil
		if err != nil {
			// The transaction is published in memory but did not reach
			// the write-ahead log; surface that as the COMMIT's error.
			return nil, fmt.Errorf("COMMIT: %w", err)
		}
		return empty, nil
	case ast.TxnRollback:
		if s.txn == nil {
			return nil, fmt.Errorf("ROLLBACK: no open transaction")
		}
		s.txn.w.Rollback()
		s.txn = nil
		return empty, nil
	default:
		return nil, fmt.Errorf("unknown transaction control statement")
	}
}

// executeInTxn runs one statement of an open explicit transaction
// against the transaction's working graph. Errors roll back to the
// statement's journal mark; the transaction stays open.
func (s *Session) executeInTxn(stmt *ast.Statement, params map[string]value.Value, t0 *table.Table) (*Result, error) {
	g, j := s.txn.w.Graph(), s.txn.w.Journal()
	mark := j.Mark()
	// Explicit-transaction pipelines run serially (degree 1): the
	// transaction's working graph is private to this session but the
	// single-writer baton and journal discipline stay untouched.
	res, err := s.e.executeUnionPar(g, stmt, params, t0, 1)
	if err == nil {
		err = statementInvariant(g)
	}
	if err != nil {
		j.RollbackTo(mark)
		return nil, err
	}
	s.txn.stats.Add(res.Stats)
	return res, nil
}

// executeReadOnly streams a statement with no updating clauses from a
// pinned snapshot: no journal, no writer lock, fully concurrent with
// other readers and with a writer preparing the next epoch.
func (s *Session) executeReadOnly(stmt *ast.Statement, params map[string]value.Value, t0 *table.Table) (*Result, error) {
	snap := s.store.Acquire()
	defer snap.Release()
	return s.e.executeUnion(snap.Graph(), stmt, params, t0)
}

// executeAutoCommit wraps one updating statement in an implicit write
// transaction: begin, execute under the journal, enforce the
// statement-boundary invariant, commit (or roll back on error).
func (s *Session) executeAutoCommit(stmt *ast.Statement, params map[string]value.Value, t0 *table.Table) (*Result, error) {
	w := s.store.BeginWrite()
	res, err := s.e.executeUnion(w.Graph(), stmt, params, t0)
	if err == nil {
		err = statementInvariant(w.Graph())
	}
	if err != nil {
		w.Rollback()
		return nil, err
	}
	if _, err := w.Commit(); err != nil {
		// Executed and published in memory, but not durably logged.
		return nil, err
	}
	return res, nil
}

// Begin opens an explicit transaction (the programmatic BEGIN).
func (s *Session) Begin() error {
	_, err := s.executeTxnControl(ast.TxnBegin)
	return err
}

// Commit publishes the open transaction and returns its accumulated
// update statistics (the programmatic COMMIT).
func (s *Session) Commit() (UpdateStats, error) {
	res, err := s.executeTxnControl(ast.TxnCommit)
	if err != nil {
		return UpdateStats{}, err
	}
	return res.Stats, nil
}

// Rollback discards the open transaction (the programmatic ROLLBACK).
func (s *Session) Rollback() error {
	_, err := s.executeTxnControl(ast.TxnRollback)
	return err
}

// Explain renders the statement's plan with its transaction boundaries
// (see Engine.ExplainStatement) against the graph the statement would
// run on: the open transaction's working graph, or the latest committed
// snapshot.
func (s *Session) Explain(stmt *ast.Statement, params map[string]value.Value) (string, error) {
	if s.txn != nil {
		return s.e.explainStatement(s.txn.w.Graph(), stmt, params, true)
	}
	snap := s.store.Acquire()
	defer snap.Release()
	return s.e.explainStatement(snap.Graph(), stmt, params, false)
}

// Profile executes the statement and renders the operator tree
// annotated with its observed execution counters — per-operator rows
// and batches, and for barriers the peak accounted memory and spill-run
// count when a memory budget is in force. Unlike Explain it RUNS the
// statement: updates apply exactly as in Execute. Transaction control
// cannot be profiled (it has no operator plan).
func (s *Session) Profile(stmt *ast.Statement, params map[string]value.Value) (*Result, string, error) {
	if stmt.TxnControl != ast.TxnNone {
		return nil, "", fmt.Errorf("PROFILE: %s is transaction control — no operator plan", stmt.TxnControl)
	}
	// Run on a temporary engine copy that captures the executed plan
	// (chaining any existing hook).
	var root plan.Operator
	prof := *s.e
	prev := prof.cfg.onPlan
	prof.cfg.onPlan = func(op plan.Operator) {
		root = op
		if prev != nil {
			prev(op)
		}
	}
	saved := s.e
	s.e = &prof
	res, err := s.Execute(stmt, params)
	s.e = saved
	if err != nil {
		return nil, "", err
	}
	if root == nil {
		// Schema statements (CREATE/DROP INDEX) have no operator plan.
		return res, "(no operator plan)", nil
	}
	return res, plan.Explain(root), nil
}

// Stats summarizes the graph the session's next statement would see:
// the open transaction's working graph (own writes included), or the
// latest committed snapshot.
func (s *Session) Stats() graph.Stats {
	if s.txn != nil {
		return graph.ComputeStats(s.txn.w.Graph())
	}
	snap := s.store.Acquire()
	defer snap.Release()
	return graph.ComputeStats(snap.Graph())
}

// Indexes lists the property indexes the session's next statement would
// see: the open transaction's working graph (its own uncommitted
// CREATE/DROP INDEX statements included), or the latest committed
// snapshot.
func (s *Session) Indexes() []graph.IndexKey {
	if s.txn != nil {
		return s.txn.w.Graph().Indexes()
	}
	snap := s.store.Acquire()
	defer snap.Release()
	return snap.Graph().Indexes()
}

// Close rolls back any open transaction and invalidates the session.
func (s *Session) Close() {
	if s.txn != nil {
		s.txn.w.Rollback()
		s.txn = nil
	}
}
