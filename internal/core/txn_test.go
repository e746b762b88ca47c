package core

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/value"
)

func newTestSession(t *testing.T, d Dialect) (*Session, *graph.Store) {
	t.Helper()
	store := graph.NewStore(graph.New())
	return NewSession(NewEngine(Config{Dialect: d}), store), store
}

func sessExec(t *testing.T, s *Session, q string) *Result {
	t.Helper()
	res, err := sessTry(s, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

func sessTry(s *Session, q string) (*Result, error) {
	stmt, err := s.Parse(q)
	if err != nil {
		return nil, err
	}
	return s.Execute(stmt, nil)
}

func countNodes(t *testing.T, s *Session, label string) int64 {
	t.Helper()
	res := sessExec(t, s, `MATCH (n:`+label+`) RETURN count(*) AS c`)
	n, ok := value.AsInt(res.Table.Get(0, "c"))
	if !ok {
		t.Fatalf("count not an int: %v", res.Table.Get(0, "c"))
	}
	return n
}

// TestSessionAutoCommitMatchesEngine: the session's implicit-transaction
// path must be observably identical to the engine's single-statement
// execution, including rollback of failing statements.
func TestSessionAutoCommitMatchesEngine(t *testing.T) {
	for _, d := range []Dialect{DialectRevised, DialectCypher9} {
		s, store := newTestSession(t, d)
		g := graph.New()
		eng := NewEngine(Config{Dialect: d})

		stmts := []string{
			`CREATE (:User{id:1, name:'Ada'})-[:KNOWS]->(:User{id:2, name:'Bob'})`,
			`MATCH (a:User) SET a.seen = true`,
			`MATCH (a:User{id:1})-[:KNOWS]->(b) RETURN a.name AS a, b.name AS b`,
		}
		for _, q := range stmts {
			stmt, err := s.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			sres, serr := s.Execute(stmt, nil)
			eres, eerr := eng.ExecuteStatement(g, stmt.Statement, nil)
			if (serr == nil) != (eerr == nil) {
				t.Fatalf("%s dialect %s: session err %v, engine err %v", q, d, serr, eerr)
			}
			if serr == nil && sres.Table.String() != eres.Table.String() {
				t.Errorf("%s dialect %s: session and engine tables differ", q, d)
			}
		}
		// A failing statement must leave the store unchanged.
		if _, err := sessTry(s, `MATCH (a:User) DELETE a`); err == nil {
			t.Fatal("DELETE of attached node should fail")
		}
		snap := store.Acquire()
		if !graph.Isomorphic(snap.Graph(), g) {
			t.Errorf("dialect %s: session store diverged from engine graph", d)
		}
		snap.Release()
	}
}

func TestSessionExplicitCommit(t *testing.T) {
	s, store := newTestSession(t, DialectRevised)
	other := NewSession(s.Engine(), store)
	sessExec(t, s, `CREATE (:P{id:0})`)

	sessExec(t, s, `BEGIN`)
	if !s.InTransaction() {
		t.Fatal("BEGIN did not open a transaction")
	}
	sessExec(t, s, `CREATE (:P{id:1})`)
	sessExec(t, s, `CREATE (:P{id:2})-[:R]->(:Q{id:3})`)

	// The transaction reads its own uncommitted writes…
	if got := countNodes(t, s, "P"); got != 3 {
		t.Errorf("txn sees %d :P nodes, want 3", got)
	}
	// …while another session still reads the last committed epoch.
	if got := countNodes(t, other, "P"); got != 1 {
		t.Errorf("outside session sees %d :P nodes mid-txn, want 1", got)
	}

	res := sessExec(t, s, `COMMIT`)
	if s.InTransaction() {
		t.Fatal("COMMIT left the transaction open")
	}
	if res.Stats.NodesCreated != 3 || res.Stats.RelsCreated != 1 {
		t.Errorf("COMMIT stats = %+v, want 3 nodes / 1 rel", res.Stats)
	}
	if got := countNodes(t, other, "P"); got != 3 {
		t.Errorf("outside session sees %d :P nodes post-commit, want 3", got)
	}
}

func TestSessionExplicitRollback(t *testing.T) {
	s, _ := newTestSession(t, DialectRevised)
	sessExec(t, s, `CREATE (:P{id:0})`)
	sessExec(t, s, `BEGIN`)
	sessExec(t, s, `CREATE (:P{id:1})`)
	sessExec(t, s, `MATCH (p:P{id:0}) SET p.touched = true`)
	sessExec(t, s, `ROLLBACK`)
	if s.InTransaction() {
		t.Fatal("ROLLBACK left the transaction open")
	}
	if got := countNodes(t, s, "P"); got != 1 {
		t.Errorf("%d :P nodes after rollback, want 1", got)
	}
	res := sessExec(t, s, `MATCH (p:P{id:0}) RETURN p.touched AS x`)
	if !value.IsNull(res.Table.Get(0, "x")) {
		t.Error("rolled-back SET is visible")
	}
}

// TestSessionStatementErrorKeepsTxnOpen: a failing statement inside an
// explicit transaction undoes only itself (journal mark), leaving the
// transaction's earlier statements intact and the transaction open.
func TestSessionStatementErrorKeepsTxnOpen(t *testing.T) {
	s, _ := newTestSession(t, DialectRevised)
	sessExec(t, s, `BEGIN`)
	sessExec(t, s, `CREATE (:Keep{id:1})`)
	// Strict DELETE of a node with an attached relationship fails in the
	// revised dialect; its partial effects must be rolled back.
	sessExec(t, s, `CREATE (:Doomed)-[:R]->(:Other)`)
	if _, err := sessTry(s, `MATCH (d:Doomed) DELETE d`); err == nil {
		t.Fatal("strict DELETE should fail")
	}
	if !s.InTransaction() {
		t.Fatal("failed statement closed the transaction")
	}
	if got := countNodes(t, s, "Doomed"); got != 1 {
		t.Errorf("failed statement's target gone: %d :Doomed, want 1", got)
	}
	if got := countNodes(t, s, "Keep"); got != 1 {
		t.Errorf("earlier txn statement undone: %d :Keep, want 1", got)
	}
	sessExec(t, s, `COMMIT`)
	if got := countNodes(t, s, "Keep"); got != 1 {
		t.Errorf("commit after failed statement lost work: %d :Keep, want 1", got)
	}
}

func TestSessionTxnControlErrors(t *testing.T) {
	s, _ := newTestSession(t, DialectRevised)
	if _, err := sessTry(s, `COMMIT`); err == nil || !strings.Contains(err.Error(), "no open transaction") {
		t.Errorf("COMMIT without txn: %v", err)
	}
	if _, err := sessTry(s, `ROLLBACK`); err == nil || !strings.Contains(err.Error(), "no open transaction") {
		t.Errorf("ROLLBACK without txn: %v", err)
	}
	sessExec(t, s, `BEGIN`)
	if _, err := sessTry(s, `BEGIN`); err == nil || !strings.Contains(err.Error(), "already open") {
		t.Errorf("nested BEGIN: %v", err)
	}
	sessExec(t, s, `ROLLBACK`)

	// Engine-level execution (no session) rejects transaction control.
	eng := NewEngine(Config{Dialect: DialectRevised})
	stmt, err := parser.Parse(`BEGIN`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExecuteStatement(graph.New(), stmt, nil); err == nil {
		t.Error("engine should reject BEGIN without a session")
	}
}

func TestSessionCloseRollsBack(t *testing.T) {
	store := graph.NewStore(graph.New())
	eng := NewEngine(Config{Dialect: DialectRevised})
	s := NewSession(eng, store)
	sessExec(t, s, `BEGIN`)
	sessExec(t, s, `CREATE (:Gone)`)
	s.Close()
	// The writer baton must have been released: a new transaction opens.
	s2 := NewSession(eng, store)
	sessExec(t, s2, `BEGIN`)
	if got := countNodes(t, s2, "Gone"); got != 0 {
		t.Errorf("Close leaked %d uncommitted nodes", got)
	}
	sessExec(t, s2, `ROLLBACK`)
}

// TestSessionTxnKeywordsStayVariables: begin/commit/rollback remain
// usable as variable names (soft keywords).
func TestSessionTxnKeywordsStayVariables(t *testing.T) {
	s, _ := newTestSession(t, DialectRevised)
	res := sessExec(t, s, `WITH 1 AS commit, 2 AS rollback RETURN commit + rollback AS begin`)
	if n, _ := value.AsInt(res.Table.Get(0, "begin")); n != 3 {
		t.Errorf("soft-keyword variables broke: %v", res.Table.Get(0, "begin"))
	}
}

// TestSessionExplainTxnBoundaries: EXPLAIN states whether the plan
// streams from a pinned snapshot or runs under the writer lock, and
// tags update barriers.
func TestSessionExplainTxnBoundaries(t *testing.T) {
	s, _ := newTestSession(t, DialectRevised)
	explain := func(q string) string {
		stmt, err := s.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Explain(stmt, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if out := explain(`MATCH (n) RETURN n`); !strings.Contains(out, "pinned snapshot") {
		t.Errorf("read-only explain missing snapshot note:\n%s", out)
	}
	if out := explain(`CREATE (:X)`); !strings.Contains(out, "writer lock") ||
		!strings.Contains(out, "Update[barrier:writer-lock](CREATE)") {
		t.Errorf("write explain missing writer-lock boundary:\n%s", out)
	}
	if out := explain(`BEGIN`); !strings.Contains(out, "transaction control") {
		t.Errorf("txn-control explain: %s", out)
	}
	sessExec(t, s, `BEGIN`)
	if out := explain(`MATCH (n) RETURN n`); !strings.Contains(out, "explicit (open transaction)") {
		t.Errorf("in-txn explain missing context:\n%s", out)
	}
	sessExec(t, s, `ROLLBACK`)
}

// TestStatementStringTxnControl checks the canonical rendering.
func TestStatementStringTxnControl(t *testing.T) {
	for _, q := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
		stmt, err := parser.Parse(strings.ToLower(q) + " ;")
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if stmt.TxnControl == ast.TxnNone || stmt.String() != q {
			t.Errorf("parse(%q).String() = %q", q, stmt.String())
		}
		if stmt.Updating() {
			t.Errorf("%s must not count as updating", q)
		}
	}
}
