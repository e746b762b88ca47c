package core

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/table"
	"repro/internal/value"
)

func mustParse(t *testing.T, src string) *ast.Statement {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return stmt
}

// indexEquivQueries are equality-anchored shapes the index seek
// rewrites; each must return the identical multiset with and without
// indexes, in both dialects.
var indexEquivQueries = []string{
	`MATCH (a:User{name:'ada'}) RETURN a.age AS age`,
	`MATCH (a:User) WHERE a.name = 'bob' RETURN a.age AS age`,
	`MATCH (a:User) WHERE 'cyd' = a.name RETURN a.age AS age`,
	`MATCH (a:User{name:'ada'})-[:KNOWS]->(b:User) RETURN b.name AS bn`,
	`MATCH (b:User)<-[:KNOWS]-(a:User) WHERE a.name = 'ada' RETURN b.name AS bn`,
	`MATCH (a:User)-[:WROTE]->(p:Post) WHERE p.id = 2 RETURN a.name AS an`,
	`MATCH (a:User{name:'nobody'}) RETURN a.age AS age`,
	`MATCH (a:User) WHERE a.name = 'ada' AND a.age < 50 RETURN a.age AS age`,
	`MATCH (a:User) OPTIONAL MATCH (a)-[:WROTE]->(p:Post) WHERE p.id = 1 RETURN a.name AS an, p.id AS pid`,
	`MATCH (x:User) WITH x.name AS nm MATCH (a:User) WHERE a.name = nm RETURN nm, a.age AS age`,
}

// indexEquivDDL creates the indexes the queries above can seek on.
var indexEquivDDL = []string{
	`CREATE INDEX ON :User(name)`,
	`CREATE INDEX ON :Post(id)`,
}

// TestIndexSeekEquivalence is the acceptance sweep: every corpus query
// must return a multiset identical between the index-seek plan and the
// label-scan plan, in both dialects (and the naive planner as a third
// reference).
func TestIndexSeekEquivalence(t *testing.T) {
	plain := graph.New()
	setupEng := NewEngine(Config{Dialect: DialectRevised})
	for _, s := range plannerEquivSetup {
		if _, err := setupEng.ExecuteStatement(plain, mustParse(t, s), nil); err != nil {
			t.Fatalf("setup: %v", err)
		}
	}
	indexed := plain.Clone()
	for _, s := range indexEquivDDL {
		if _, err := setupEng.ExecuteStatement(indexed, mustParse(t, s), nil); err != nil {
			t.Fatalf("ddl: %v", err)
		}
	}

	for _, q := range indexEquivQueries {
		stmt := mustParse(t, q)
		var want string
		first := true
		check := func(name string, g *graph.Graph, cfg Config) {
			t.Helper()
			res, err := NewEngine(cfg).ExecuteStatement(g.Clone(), stmt, nil)
			if err != nil {
				t.Fatalf("%s: %q: %v", name, q, err)
			}
			got := renderMultiset(res)
			if first {
				want, first = got, false
				return
			}
			if got != want {
				t.Errorf("%s: %q diverged:\n got:\n%s\nwant:\n%s", name, q, got, want)
			}
		}
		for _, dialect := range []Dialect{DialectRevised, DialectCypher9} {
			cfg := Config{Dialect: dialect}
			check("scan/"+dialect.String(), plain, cfg)
			check("seek/"+dialect.String(), indexed, cfg)
			check("naive/"+dialect.String(), indexed, Config{Dialect: dialect, naivePlanner: true})
		}
	}
}

// TestIndexStatementSemantics pins the engine-level schema statement
// contract: CREATE INDEX is idempotent, DROP INDEX of a missing index
// errors without side effects, and EXPLAIN describes both.
func TestIndexStatementSemantics(t *testing.T) {
	g := graph.New()
	eng := NewEngine(Config{Dialect: DialectRevised})
	for _, s := range []string{`CREATE (:User{id:1})`, `CREATE INDEX ON :User(id)`, `CREATE INDEX ON :User(id)`} {
		if _, err := eng.ExecuteStatement(g, mustParse(t, s), nil); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	if got := g.Indexes(); len(got) != 1 {
		t.Fatalf("indexes = %v, want exactly one", got)
	}
	if _, err := eng.ExecuteStatement(g, mustParse(t, `DROP INDEX ON :User(nope)`), nil); err == nil {
		t.Fatal("DROP INDEX of a missing index must error")
	}
	if !g.HasIndex("User", "id") {
		t.Fatal("failed DROP INDEX disturbed the existing index")
	}

	out, err := eng.ExplainStatement(g, mustParse(t, `CREATE INDEX ON :User(age)`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CreateIndex") || !strings.Contains(out, ":User(age)") {
		t.Fatalf("EXPLAIN CREATE INDEX output: %s", out)
	}
	if g.HasIndex("User", "age") {
		t.Fatal("EXPLAIN must not execute the schema statement")
	}
	out, err = eng.ExplainStatement(g, mustParse(t, `DROP INDEX ON :User(id)`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DropIndex") {
		t.Fatalf("EXPLAIN DROP INDEX output: %s", out)
	}
}

// TestMergeUsesIndexSeek: the read phase of every MERGE family runs
// through the matcher, so with an index on the merge key a bulk upsert
// stops scanning — and produces a graph isomorphic to the unindexed
// run, with identical outcome stats.
func TestMergeUsesIndexSeek(t *testing.T) {
	build := func(rows int) *table.Table {
		tbl := table.New("cid")
		for i := 0; i < rows; i++ {
			tbl.AppendRow(value.Int(int64(i % 7)))
		}
		return tbl
	}
	cases := []struct {
		name string
		cfg  Config
		q    string
	}{
		{"legacy", Config{Dialect: DialectCypher9}, `MERGE (:User{id:cid})`},
		{"merge-all", Config{Dialect: DialectRevised}, `MERGE ALL (:User{id:cid})`},
		{"merge-same", Config{Dialect: DialectRevised}, `MERGE SAME (:User{id:cid})`},
	}
	for _, c := range cases {
		stmt := mustParse(t, c.q)
		run := func(withIndex bool) (*graph.Graph, string) {
			g := graph.New()
			if withIndex {
				if _, err := NewEngine(c.cfg).ExecuteStatement(g, mustParse(t, `CREATE INDEX ON :User(id)`), nil); err != nil {
					t.Fatal(err)
				}
			}
			res, err := NewEngine(c.cfg).ExecuteWithTable(g, stmt, nil, build(40))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return g, renderMultiset(res)
		}
		gScan, outScan := run(false)
		gSeek, outSeek := run(true)
		if outScan != outSeek {
			t.Errorf("%s: MERGE output diverged with index:\n%s\nvs\n%s", c.name, outSeek, outScan)
		}
		if !graph.Isomorphic(gScan, gSeek) {
			t.Errorf("%s: MERGE result graphs not isomorphic with/without index", c.name)
		}
	}
}
