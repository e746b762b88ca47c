package core_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/cypher"
	"repro/cypherclient"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/server"
)

// A statement's verdict and its folded constants are facts about its
// text and dialect, so the engine works them out once, when it prepares
// the statement, and every execution reads them from the Prepared.
// These tests pin what must not change because of that: column names,
// the verdict on every path that reports it, and the results of an AST
// prepared again and again.

// TestPrepareKeepsColumnNames: folding rewrites a projection item's
// expression, but its column keeps the name of the text as written,
// on a cache miss and on a hit, and after WITH … ORDER BY.
func TestPrepareKeepsColumnNames(t *testing.T) {
	e := core.NewEngine(core.Config{Dialect: core.DialectRevised})
	sess := core.NewSession(e, graph.NewStore(graph.New()))
	defer sess.Close()
	cases := []struct{ query, want string }{
		{`RETURN 1 + 2, toUpper('a') AS x, [1, 2][0]`,
			"(1 + 2) | x | [1, 2][0]\n3 | 'A' | 1\n"},
		{`UNWIND [2, 1] AS i WITH i, 1 + 2 AS three ORDER BY i RETURN 1 + 2, toUpper('a') AS x, [1, 2][0], three ORDER BY i DESC`,
			"(1 + 2) | x | [1, 2][0] | three\n3 | 'A' | 1 | 3\n3 | 'A' | 1 | 3\n"},
	}
	for _, c := range cases {
		for run := range 2 {
			p, err := sess.Parse(c.query)
			if err != nil {
				t.Fatal(err)
			}
			items := p.Queries[0].Clauses[len(p.Queries[0].Clauses)-1].(*ast.ReturnClause).Items
			if _, ok := items[0].Expr.(*ast.Const); !ok {
				t.Errorf("%q: the prepared item %s is not folded", c.query, items[0].Expr)
			}
			res, err := sess.Execute(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Table.String(); got != c.want {
				t.Errorf("%q run %d:\n%s\nwant\n%s", c.query, run, got, c.want)
			}
		}
	}
}

// TestPrepareVerdictOnEveryPath: a statement invalid in Cypher 9 gives
// Validate's error on every path — executing it on a cache miss and on
// a hit, EXPLAIN, PROFILE and DB.Parse, on the database and on a
// session — and over the wire an ExecutionError (it parses; it is the
// dialect that refuses it), with the graph left untouched.
func TestPrepareVerdictOnEveryPath(t *testing.T) {
	const q = `CREATE (:A) MATCH (n) RETURN n`
	stmt, err := parser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Validate(stmt, core.DialectCypher9)
	if want == nil {
		t.Fatalf("%q must be invalid in Cypher 9", q)
	}
	db := cypher.Open(cypher.WithDialect(cypher.Cypher9))
	sess := db.Session()
	defer sess.Close()
	check := func(path string, err error) {
		t.Helper()
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: err = %v, want %v", path, err, want)
		}
	}
	_, err = db.Exec(q, nil)
	check("DB.Exec (miss)", err)
	_, err = db.Exec(q, nil)
	check("DB.Exec (hit)", err)
	if st := db.CacheStats(); st.StmtMisses != 1 || st.StmtHits < 1 {
		t.Errorf("cache: %d misses, %d hits; want one miss, then hits", st.StmtMisses, st.StmtHits)
	}
	_, err = db.Explain(q)
	check("DB.Explain", err)
	_, _, err = db.Profile(q, nil)
	check("DB.Profile", err)
	check("DB.Parse", db.Parse(q))
	_, err = sess.Exec(q, nil)
	check("Session.Exec", err)
	_, err = sess.Explain(q)
	check("Session.Explain", err)
	_, _, err = sess.Profile(q, nil)
	check("Session.Profile", err)

	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	c, err := cypherclient.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec(q, nil)
	var se *cypherclient.ServerError
	if !errors.As(err, &se) || se.Code != server.CodeExecutionError || se.Message != want.Error() {
		t.Errorf("served: err = %v, want %s: %v", err, server.CodeExecutionError, want)
	}
	if n := db.NumNodes(); n != 0 {
		t.Errorf("a refused statement created %d nodes", n)
	}
}

// TestPrepareSharedASTAcrossDialects: Engine.ExecuteStatement prepares
// the AST it is given on every call, so one parsed AST run twice on an
// engine of each dialect is prepared four times, folded once. Each run
// must give what a fresh parse of the text gives on that dialect.
func TestPrepareSharedASTAcrossDialects(t *testing.T) {
	const q = `UNWIND [3, 1, 2] AS i WITH i, 10 + 20 AS k WHERE i > 0 + 1 ` +
		`CREATE (n:N {v: i * k}) WITH n MATCH (m:N) WHERE m.v >= 2 * 30 ` +
		`RETURN m.v AS v, toUpper('a'), [1, 2][0], count(*) + 0 AS c ORDER BY v + 0`
	run := func(d core.Dialect, stmt *ast.Statement) string {
		t.Helper()
		res, err := core.NewEngine(core.Config{Dialect: d}).ExecuteStatement(graph.New(), stmt, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Table.String() + res.Stats.String()
	}
	shared, err := parser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []core.Dialect{core.DialectCypher9, core.DialectRevised} {
		fresh, err := parser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		want := run(d, fresh)
		for i := range 2 {
			if got := run(d, shared); got != want {
				t.Errorf("%s run %d of the shared AST:\n%s\nwant\n%s", d, i, got, want)
			}
		}
	}
}

// TestPrepareKeepsLargeConstantsUnfolded: a folded constant lives as
// long as its text stays cached, so a closed expression whose value is
// large stays as written and is evaluated when the statement runs,
// while a small one still folds.
func TestPrepareKeepsLargeConstantsUnfolded(t *testing.T) {
	sess := core.NewSession(core.NewEngine(core.Config{Dialect: core.DialectRevised}), graph.NewStore(graph.New()))
	defer sess.Close()
	p, err := sess.Parse(`UNWIND range(1, 1000000) AS x RETURN count(*) AS n, 1 + 2 AS k`)
	if err != nil {
		t.Fatal(err)
	}
	clauses := p.Queries[0].Clauses
	if e := clauses[0].(*ast.UnwindClause).Expr; e.String() != "range(1, 1000000)" {
		t.Errorf("the UNWIND list was prepared as %T %.40s, want it as written", e, e)
	}
	if e := clauses[1].(*ast.ReturnClause).Items[1].Expr; e.String() != "3" {
		t.Errorf("1 + 2 was prepared as %s, want it folded to 3", e)
	}
	res, err := sess.Execute(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.String(); got != "n | k\n1000000 | 3\n" {
		t.Errorf("got\n%s", got)
	}
}
