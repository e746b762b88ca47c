package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/parser"
	"repro/internal/table"
	"repro/internal/value"
)

func TestLoadCSVWithHeaders(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "orders.csv")
	data := "cid,pid\n98,125\n98,\n99,125\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	res := run(t, DialectRevised, g, `
		LOAD CSV WITH HEADERS FROM 'file://`+path+`' AS row
		RETURN row.cid AS cid, row.pid AS pid`)
	if res.Table.Len() != 3 {
		t.Fatalf("rows = %d", res.Table.Len())
	}
	if res.Table.Get(0, "cid") != value.String("98") {
		t.Errorf("cid = %v", res.Table.Get(0, "cid"))
	}
	if !value.IsNull(res.Table.Get(1, "pid")) {
		t.Errorf("empty field should be null, got %v", res.Table.Get(1, "pid"))
	}
}

func TestLoadCSVNoHeaders(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plain.csv")
	if err := os.WriteFile(path, []byte("a;b\nc;d\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	res := run(t, DialectRevised, g, `
		LOAD CSV FROM '`+path+`' AS line FIELDTERMINATOR ';'
		RETURN line[0] AS first, line[1] AS second`)
	if res.Table.Len() != 2 || res.Table.Get(1, "second") != value.String("d") {
		t.Errorf("result: %v", res.Table)
	}
}

func TestLoadCSVImportPipeline(t *testing.T) {
	// The full Section 5 scenario: CSV -> MERGE SAME population.
	dir := t.TempDir()
	path := filepath.Join(dir, "orders.csv")
	data := "cid,pid\n98,125\n98,125\n99,125\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	run(t, DialectRevised, g, `
		LOAD CSV WITH HEADERS FROM '`+path+`' AS row
		MERGE SAME (:User{id:toInteger(row.cid)})-[:ORDERED]->(:Product{id:toInteger(row.pid)})`)
	if g.NumNodes() != 3 || g.NumRels() != 2 {
		t.Errorf("imported graph: %s, want 3 nodes / 2 rels", graph.ComputeStats(g))
	}
}

func TestLoadCSVErrors(t *testing.T) {
	g := graph.New()
	if _, err := runErr(DialectRevised, g, `LOAD CSV FROM '/does/not/exist.csv' AS r RETURN r`); err == nil {
		t.Error("missing file should error")
	}
	if _, err := runErr(DialectRevised, g, `LOAD CSV FROM 42 AS r RETURN r`); err == nil {
		t.Error("non-string URL should error")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "x.csv")
	os.WriteFile(path, []byte("a,b\n"), 0o644)
	if _, err := runErr(DialectRevised, g, `LOAD CSV FROM '`+path+`' AS r FIELDTERMINATOR 'ab' RETURN r`); err == nil {
		t.Error("multi-char field terminator should error")
	}
}

func TestSetPlusEqualsAndReplace(t *testing.T) {
	for _, d := range []Dialect{DialectCypher9, DialectRevised} {
		g := graph.New()
		run(t, d, g, `CREATE (:N{a:1, b:2})`)
		// += merges; null values remove.
		run(t, d, g, `MATCH (n:N) SET n += {b: 20, c: 3, a: null}`)
		id := g.NodeIDsByLabel("N")[0]
		n := g.Node(id)
		if _, has := g.Prop(n.Props, "a"); has {
			t.Errorf("[%v] a should be removed by += null", d)
		}
		if g.NodeProp(n.ID, "b") != value.Int(20) || g.NodeProp(n.ID, "c") != value.Int(3) {
			t.Errorf("[%v] props = %v", d, n.Props)
		}
		// = replaces the whole map.
		run(t, d, g, `MATCH (n:N) SET n = {z: 9}`)
		n = g.Node(id)
		if len(n.Props) != 1 || g.NodeProp(n.ID, "z") != value.Int(9) {
			t.Errorf("[%v] after replace: %v", d, n.Props)
		}
		// = from another node copies its properties.
		run(t, d, g, `CREATE (:M{q:7})`)
		run(t, d, g, `MATCH (n:N), (m:M) SET n = m`)
		n = g.Node(id)
		if len(n.Props) != 1 || g.NodeProp(n.ID, "q") != value.Int(7) {
			t.Errorf("[%v] after copy from node: %v", d, n.Props)
		}
	}
}

func TestSetOnNullIsNoop(t *testing.T) {
	for _, d := range []Dialect{DialectCypher9, DialectRevised} {
		g := graph.New()
		g.CreateNode([]string{"N"}, nil)
		// OPTIONAL MATCH misses; SET on the null binding must be a no-op.
		run(t, d, g, `
			MATCH (n:N)
			OPTIONAL MATCH (m:Missing)
			SET m.x = 1, m:Label`)
		if g.NumNodes() != 1 {
			t.Errorf("[%v] graph changed", d)
		}
	}
}

func TestSetTypeErrors(t *testing.T) {
	for _, d := range []Dialect{DialectCypher9, DialectRevised} {
		g := graph.New()
		g.CreateNode([]string{"N"}, nil)
		if _, err := runErr(d, g, `MATCH (n:N) WITH 1 AS x, n SET x.k = 1`); err == nil {
			t.Errorf("[%v] SET on integer should error", d)
		}
		if _, err := runErr(d, g, `MATCH (n:N) WITH 1 AS x, n SET x:Label`); err == nil {
			t.Errorf("[%v] SET label on integer should error", d)
		}
		if _, err := runErr(d, g, `MATCH (n:N) SET n = 42`); err == nil {
			t.Errorf("[%v] SET n = non-map should error", d)
		}
	}
}

func TestRemoveClauseBothDialects(t *testing.T) {
	for _, d := range []Dialect{DialectCypher9, DialectRevised} {
		g := graph.New()
		g.CreateNode([]string{"A", "B"}, map[string]value.Value{"x": value.Int(1), "y": value.Int(2)})
		res := run(t, d, g, `MATCH (n:A) REMOVE n.x, n:B`)
		id := g.NodeIDsByLabel("A")[0]
		n := g.Node(id)
		if _, has := g.Prop(n.Props, "x"); has {
			t.Errorf("[%v] x not removed", d)
		}
		if g.HasLabel(n, "B") {
			t.Errorf("[%v] label B not removed", d)
		}
		if g.NodeProp(n.ID, "y") != value.Int(2) {
			t.Errorf("[%v] y damaged", d)
		}
		_ = res
		// REMOVE on null: no-op.
		run(t, d, g, `OPTIONAL MATCH (m:Missing) REMOVE m.x, m:L`)
	}
}

func TestDeletePathValue(t *testing.T) {
	for _, d := range []Dialect{DialectCypher9, DialectRevised} {
		g := graph.New()
		a := g.CreateNode([]string{"A"}, nil)
		b := g.CreateNode([]string{"B"}, nil)
		if _, err := g.CreateRel(a.ID, b.ID, "T", nil); err != nil {
			t.Fatal(err)
		}
		run(t, d, g, `MATCH pth = (:A)-[:T]->(:B) DELETE pth`)
		if g.NumNodes() != 0 || g.NumRels() != 0 {
			t.Errorf("[%v] path delete left %s", d, graph.ComputeStats(g))
		}
	}
}

func TestDeleteTypeError(t *testing.T) {
	for _, d := range []Dialect{DialectCypher9, DialectRevised} {
		g := graph.New()
		if _, err := runErr(d, g, `UNWIND [1] AS x DELETE x`); err == nil {
			t.Errorf("[%v] DELETE of integer should error", d)
		}
	}
}

func TestForeachNestedAndUnwound(t *testing.T) {
	for _, d := range []Dialect{DialectCypher9, DialectRevised} {
		g := graph.New()
		run(t, d, g, `FOREACH (x IN [1,2] | FOREACH (y IN [10,20] | CREATE (:P{v: x*y})))`)
		if len(g.NodeIDsByLabel("P")) != 4 {
			t.Errorf("[%v] nested foreach created %d", d, len(g.NodeIDsByLabel("P")))
		}
		// FOREACH over null: no-op; over non-list: error.
		run(t, d, g, `OPTIONAL MATCH (m:Missing) FOREACH (x IN m.list | CREATE (:Q))`)
		if len(g.NodeIDsByLabel("Q")) != 0 {
			t.Errorf("[%v] foreach over null created nodes", d)
		}
		if _, err := runErr(d, g, `FOREACH (x IN 42 | CREATE (:Q))`); err == nil {
			t.Errorf("[%v] foreach over int should error", d)
		}
	}
}

func TestForeachSetOverMatchedNodes(t *testing.T) {
	// The classic FOREACH idiom: mark all nodes of a matched path.
	for _, d := range []Dialect{DialectCypher9, DialectRevised} {
		g := graph.New()
		a := g.CreateNode([]string{"A"}, nil)
		b := g.CreateNode([]string{"B"}, nil)
		if _, err := g.CreateRel(a.ID, b.ID, "T", nil); err != nil {
			t.Fatal(err)
		}
		run(t, d, g, `
			MATCH pth = (:A)-[:T]->(:B)
			FOREACH (n IN nodes(pth) | SET n.marked = true)`)
		for _, id := range g.NodeIDs() {
			if g.NodeProp(id, "marked") != value.Bool(true) {
				t.Errorf("[%v] node %d not marked", d, id)
			}
		}
	}
}

func TestCreateErrorCases(t *testing.T) {
	for _, d := range []Dialect{DialectCypher9, DialectRevised} {
		g := graph.New()
		g.CreateNode([]string{"A"}, nil)
		// Null endpoint.
		if _, err := runErr(d, g, `OPTIONAL MATCH (m:Missing) CREATE (m)-[:T]->(:B)`); err == nil {
			t.Errorf("[%v] CREATE with null endpoint should error", d)
		}
		// Bound var with labels in CREATE.
		if _, err := runErr(d, g, `MATCH (a:A) CREATE (a:B)`); err == nil {
			t.Errorf("[%v] CREATE redeclaring labels should error", d)
		}
		// Rel var reuse.
		if _, err := runErr(d, g, `MATCH (a:A) CREATE (a)-[r:T]->(b), (b)-[r:T]->(a)`); err == nil {
			t.Errorf("[%v] duplicate rel var should error", d)
		}
	}
}

func TestCreateNamedPath(t *testing.T) {
	g := graph.New()
	res := run(t, DialectRevised, g, `CREATE pth = (:A)-[:T]->(:B) RETURN length(pth) AS n`)
	if res.Table.Get(0, "n") != value.Int(1) {
		t.Errorf("path length = %v", res.Table.Get(0, "n"))
	}
}

func TestMergeWithMatchModeHomomorphism(t *testing.T) {
	// Under homomorphic matching, MERGE ALL finds matches that
	// isomorphic matching cannot, creating less.
	g := graph.New()
	a := g.CreateNode([]string{"N"}, value.Map{"k": value.Int(1)})
	if _, err := g.CreateRel(a.ID, a.ID, "T", nil); err != nil {
		t.Fatal(err)
	}
	query := `MERGE ALL (x:N{k:1})-[:T]->(y:N{k:1})`
	stmt, _ := parser.Parse(query)

	gIso := g.Clone()
	if _, err := NewEngine(Config{Dialect: DialectRevised}).ExecuteStatement(gIso, stmt, nil); err != nil {
		t.Fatal(err)
	}
	gHom := g.Clone()
	if _, err := NewEngine(Config{Dialect: DialectRevised, MatchMode: match.Homomorphism}).ExecuteStatement(gHom, stmt, nil); err != nil {
		t.Fatal(err)
	}
	// Isomorphism: x=y=a via self-loop is allowed even under isomorphism
	// (single rel slot); both should find the match and create nothing.
	if gIso.NumRels() != 1 || gHom.NumRels() != 1 {
		t.Errorf("iso %d rels, hom %d rels", gIso.NumRels(), gHom.NumRels())
	}
}

func TestOptionalMatchAfterUpdate(t *testing.T) {
	// Revised dialect allows reading after updates without WITH.
	g := graph.New()
	res := run(t, DialectRevised, g, `
		CREATE (:A{id:1})
		MATCH (a:A)
		RETURN a.id AS id`)
	if res.Table.Len() != 1 || res.Table.Get(0, "id") != value.Int(1) {
		t.Errorf("result: %v", res.Table)
	}
	// Cypher 9 dialect requires WITH.
	if _, err := runErr(DialectCypher9, g, `CREATE (:B) MATCH (b:B) RETURN b`); err == nil {
		t.Error("Cypher 9 must reject reading after update without WITH")
	}
}

func TestWithDistinctAndStar(t *testing.T) {
	g, _ := fixtures.Figure1()
	res := run(t, DialectRevised, g, `
		MATCH (u:User)-[:ORDERED]->(p:Product)
		WITH DISTINCT u
		RETURN count(*) AS c`)
	if res.Table.Get(0, "c") != value.Int(2) {
		t.Errorf("distinct users = %v", res.Table.Get(0, "c"))
	}
	res = run(t, DialectRevised, g, `
		MATCH (u:User) WITH *, u.name AS name RETURN name ORDER BY name LIMIT 1`)
	if res.Table.Get(0, "name") != value.String("Bob") {
		t.Errorf("WITH * result: %v", res.Table.Get(0, "name"))
	}
}

func TestSkipLimitValidation(t *testing.T) {
	g := graph.New()
	if _, err := runErr(DialectRevised, g, `RETURN 1 AS x SKIP -1`); err == nil {
		t.Error("negative SKIP should error")
	}
	if _, err := runErr(DialectRevised, g, `RETURN 1 AS x LIMIT 'a'`); err == nil {
		t.Error("non-integer LIMIT should error")
	}
}

func TestOrderByPreProjectionVariables(t *testing.T) {
	g, _ := fixtures.Figure1()
	// ORDER BY references u (pre-projection) while returning only name.
	res := run(t, DialectRevised, g, `
		MATCH (u:User)
		RETURN u.name AS name ORDER BY u.id DESC`)
	if res.Table.Get(0, "name") != value.String("Jane") {
		t.Errorf("order by pre-projection: %v", res.Table.Get(0, "name"))
	}
}

func TestAggregatesWithDistinctArg(t *testing.T) {
	g := graph.New()
	res := run(t, DialectRevised, g, `
		UNWIND [1,1,2,2,3] AS x
		RETURN count(DISTINCT x) AS c, sum(DISTINCT x) AS s`)
	if res.Table.Get(0, "c") != value.Int(3) || res.Table.Get(0, "s") != value.Int(6) {
		t.Errorf("distinct aggregates: %v", res.Table)
	}
}

func TestLegacyScanReverseOutputOrder(t *testing.T) {
	g := graph.New()
	stmt, _ := parser.Parse(`CREATE (:N{v:x})`)
	tbl := tableOf(t, "x", value.Int(1), value.Int(2), value.Int(3))
	cfg := Config{Dialect: DialectCypher9, ScanOrder: ScanReverse}
	if _, err := NewEngine(cfg).ExecuteWithTable(g, stmt, nil, tbl); err != nil {
		t.Fatal(err)
	}
	// Nodes created in reverse table order: first created node holds 3.
	first := g.Node(g.NodeIDs()[0])
	if g.NodeProp(first.ID, "v") != value.Int(3) {
		t.Errorf("reverse scan first create = %v", g.NodeProp(first.ID, "v"))
	}
}

func tableOf(t *testing.T, col string, vals ...value.Value) *table.Table {
	t.Helper()
	tt := table.New(col)
	for _, v := range vals {
		tt.AppendRow(v)
	}
	return tt
}
