package cypher

import (
	"bytes"
	"strings"
	"testing"
)

func TestOpenAndExec(t *testing.T) {
	db := Open()
	res, err := db.Exec(`CREATE (:User{id:1, name:'Ada'})-[:KNOWS]->(:User{id:2, name:'Bob'})`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats().NodesCreated != 2 || res.Stats().RelsCreated != 1 {
		t.Errorf("stats: %+v", res.Stats())
	}
	if db.NumNodes() != 2 || db.NumRels() != 1 {
		t.Errorf("graph: %d/%d", db.NumNodes(), db.NumRels())
	}

	res, err = db.Exec(`MATCH (a:User)-[:KNOWS]->(b) RETURN a.name AS a, b.name AS b`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	row := res.Row(0)
	if row["a"].String() != "'Ada'" || row["b"].String() != "'Bob'" {
		t.Errorf("row = %v", row)
	}
	cols := res.Columns()
	if len(cols) != 2 || cols[0] != "a" {
		t.Errorf("cols = %v", cols)
	}
	if len(res.Rows()) != 1 || len(res.Values(0)) != 2 {
		t.Error("Rows/Values accessors")
	}
}

func TestExecParams(t *testing.T) {
	db := Open()
	if _, err := db.Exec(`CREATE (:N $props)`, map[string]any{
		"props": map[string]any{"k": 42, "s": "x"},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`MATCH (n:N) WHERE n.k = $k RETURN n.s AS s`, map[string]any{"k": 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Errorf("rows = %d", res.NumRows())
	}
	// Unconvertible parameter.
	if _, err := db.Exec(`RETURN $x`, map[string]any{"x": struct{}{}}); err == nil {
		t.Error("bad param should fail")
	}
}

func TestDialectOption(t *testing.T) {
	legacy := Open(WithDialect(Cypher9))
	if legacy.Dialect() != Cypher9 {
		t.Error("dialect option lost")
	}
	// Bare MERGE works in Cypher9 but not in Revised.
	if _, err := legacy.Exec(`MERGE (n:X{id:1})`, nil); err != nil {
		t.Errorf("legacy MERGE: %v", err)
	}
	revised := Open()
	if _, err := revised.Exec(`MERGE (n:X{id:1})`, nil); err == nil {
		t.Error("bare MERGE must fail in revised dialect")
	}
	if err := revised.Parse(`MERGE (n:X{id:1})`); err == nil {
		t.Error("Parse must report dialect violations")
	}
	if err := revised.Parse(`MERGE ALL (n:X{id:1})`); err != nil {
		t.Errorf("Parse of valid statement: %v", err)
	}
}

func TestExecTable(t *testing.T) {
	db := Open()
	tbl := NewTable("cid", "pid")
	if err := tbl.Append(98, 125); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(98, nil); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatal("table len")
	}
	res, err := db.ExecTable(`MERGE SAME (:User{id:cid})-[:ORDERED]->(:Product{id:pid})`, tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumNodes() != 3 || db.NumRels() != 2 {
		t.Errorf("graph: %d/%d, want 3/2", db.NumNodes(), db.NumRels())
	}
	if res.NumRows() != 0 { // no RETURN clause
		t.Errorf("rows = %d", res.NumRows())
	}
}

func TestSnapshotAndSameShape(t *testing.T) {
	db := Open()
	db.Exec(`CREATE (:A)-[:T]->(:B)`, nil)
	snap := db.Snapshot()
	if !SameShape(db, snap) {
		t.Error("snapshot should be isomorphic")
	}
	snap.Exec(`CREATE (:C)`, nil)
	if SameShape(db, snap) {
		t.Error("diverged snapshot should differ")
	}
	if db.NumNodes() != 2 {
		t.Error("snapshot mutation leaked")
	}
	// Snapshot with a different dialect.
	leg := db.Snapshot(WithDialect(Cypher9))
	if leg.Dialect() != Cypher9 {
		t.Error("snapshot option lost")
	}
}

func TestNodeAndRelViews(t *testing.T) {
	db := Open()
	db.Exec(`CREATE (:User{name:'a'})-[:KNOWS{w:1}]->(:User{name:'b'})`, nil)
	nodes := db.Nodes()
	if len(nodes) != 2 || nodes[0].Labels[0] != "User" {
		t.Errorf("nodes = %+v", nodes)
	}
	rels := db.Rels()
	if len(rels) != 1 || rels[0].Type != "KNOWS" {
		t.Errorf("rels = %+v", rels)
	}
	if rels[0].Src != nodes[0].ID || rels[0].Tgt != nodes[1].ID {
		t.Error("rel endpoints")
	}
	st := db.Stats()
	if st.Nodes != 2 || st.Rels != 1 {
		t.Errorf("stats = %v", st)
	}
}

func TestErrorsLeaveDBUnchanged(t *testing.T) {
	db := Open()
	db.Exec(`CREATE (:P{id:125, name:'a'}), (:P{id:125, name:'b'}), (:Q{id:85})`, nil)
	before := db.NumNodes()
	_, err := db.Exec(`MATCH (q:Q),(p:P{id:125}) CREATE (:Extra) WITH q, p SET q.name = p.name`, nil)
	if err == nil {
		t.Fatal("expected conflict")
	}
	if db.NumNodes() != before {
		t.Error("failed statement mutated the database")
	}
}

func TestExplain(t *testing.T) {
	s, err := Explain(`match (n) return n`)
	if err != nil {
		t.Fatal(err)
	}
	if s != "MATCH (n) RETURN n" {
		t.Errorf("Explain = %q", s)
	}
	if _, err := Explain(`match (`); err == nil {
		t.Error("Explain of invalid query should fail")
	}
}

func TestParseError(t *testing.T) {
	db := Open()
	if _, err := db.Exec(`MATCH (`, nil); err == nil {
		t.Error("syntax error should surface")
	}
}

func TestConcurrentReads(t *testing.T) {
	db := Open()
	db.Exec(`UNWIND range(1, 50) AS i CREATE (:N{v:i})`, nil)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 20; i++ {
				res, err := db.Exec(`MATCH (n:N) RETURN count(*) AS c`, nil)
				if err != nil {
					done <- err
					return
				}
				if res.NumRows() != 1 {
					done <- nil
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSaveAndLoad(t *testing.T) {
	db := Open()
	db.Exec(`CREATE (:User{id:1, score:1.5, tags:['a','b']})-[:KNOWS{w:2}]->(:User{id:2})`, nil)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf, WithDialect(Cypher9))
	if err != nil {
		t.Fatal(err)
	}
	if !SameShape(db, db2) {
		t.Error("loaded database differs")
	}
	if db2.Dialect() != Cypher9 {
		t.Error("Load options lost")
	}
	// The loaded database is fully usable.
	res, err := db2.Exec(`MATCH (u:User) RETURN count(*) AS c`, nil)
	if err != nil || res.Row(0)["c"].String() != "2" {
		t.Errorf("query after load: %v, %v", res, err)
	}
	if _, err := Load(bytes.NewBufferString("junk")); err == nil {
		t.Error("corrupt snapshot should fail")
	}
}

func TestExportDOT(t *testing.T) {
	db := Open()
	db.Exec(`CREATE (:A)-[:T]->(:B)`, nil)
	var buf bytes.Buffer
	if err := db.ExportDOT(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") || !strings.Contains(buf.String(), ":T") {
		t.Errorf("DOT output: %s", buf.String())
	}
}

// A MATCH that rebinds a bound path variable is refused before it
// runs, whichever walk the planner would choose (the engine's planner
// tests check the naive walk too).
func TestReboundPathVariableRefused(t *testing.T) {
	db := Open()
	if _, err := db.Exec(`CREATE (:A)-[:R {w: 1}]->(:B), (:C)`, nil); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`WITH 1 AS p MATCH (a:A)-[{w: p}]->(b), p = (c:C) RETURN count(*) AS n`,
		`MATCH p = (c:C) MATCH (a:A)-[{w: p}]->(b), p = (c) RETURN count(*) AS n`,
	} {
		if _, err := db.Exec(q, nil); err == nil || !strings.Contains(err.Error(), "variable `p` already declared") {
			t.Errorf("%q: err = %v, want `p` already declared", q, err)
		}
	}
}
