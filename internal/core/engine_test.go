package core

import (
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/table"
	"repro/internal/value"
)

// run executes a query under the given dialect against g, starting from
// the unit table.
func run(t *testing.T, d Dialect, g *graph.Graph, query string) *Result {
	t.Helper()
	res, err := runErr(d, g, query)
	if err != nil {
		t.Fatalf("exec %q: %v", query, err)
	}
	return res
}

func runErr(d Dialect, g *graph.Graph, query string) (*Result, error) {
	stmt, err := parser.Parse(query)
	if err != nil {
		return nil, err
	}
	e := NewEngine(Config{Dialect: d})
	return e.ExecuteStatement(g, stmt, nil)
}

func runCfg(t *testing.T, cfg Config, g *graph.Graph, query string, t0 *table.Table) (*Result, error) {
	t.Helper()
	stmt, err := parser.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	return NewEngine(cfg).ExecuteWithTable(g, stmt, nil, t0)
}

func TestMatchReturn(t *testing.T) {
	g, _ := fixtures.Figure1()
	res := run(t, DialectRevised, g, `MATCH (p:Product) RETURN p.name AS name ORDER BY name`)
	if res.Table.Len() != 3 {
		t.Fatalf("rows = %d", res.Table.Len())
	}
	if res.Table.Get(0, "name") != value.String("laptop") {
		t.Errorf("first = %v", res.Table.Get(0, "name"))
	}
}

// Query (1) of Section 2, including its bag-semantics discussion: without
// WHERE the table has two records; WHERE keeps one.
func TestPaperQuery1(t *testing.T) {
	g, ids := fixtures.Figure1()
	res := run(t, DialectRevised, g, `
		MATCH (p:Product)<-[:OFFERS]-(v:Vendor)-[:OFFERS]->(q:Product)
		RETURN v`)
	if res.Table.Len() != 2 {
		t.Fatalf("without WHERE: %d records, want 2 copies of (v:v1)", res.Table.Len())
	}
	res = run(t, DialectRevised, g, `
		MATCH (p:Product)<-[:OFFERS]-(v:Vendor)-[:OFFERS]->(q:Product)
		WHERE p.name = "laptop"
		RETURN v`)
	if res.Table.Len() != 1 {
		t.Fatalf("with WHERE: %d records", res.Table.Len())
	}
	if res.Table.Get(0, "v") != (value.Node{ID: int64(ids["v1"])}) {
		t.Errorf("v = %v", res.Table.Get(0, "v"))
	}
}

func TestOptionalMatch(t *testing.T) {
	g, _ := fixtures.Figure1()
	res := run(t, DialectRevised, g, `
		MATCH (u:User)
		OPTIONAL MATCH (u)-[:ORDERED]->(p:Product{name:'laptop'})
		RETURN u.name AS u, p ORDER BY u`)
	if res.Table.Len() != 2 {
		t.Fatalf("rows = %d", res.Table.Len())
	}
	// Bob ordered the laptop; Jane did not.
	if value.IsNull(res.Table.Get(0, "p")) {
		t.Error("Bob's laptop should match")
	}
	if !value.IsNull(res.Table.Get(1, "p")) {
		t.Error("Jane's p should be null")
	}
}

func TestWithPipelineAndWhere(t *testing.T) {
	g, _ := fixtures.Figure1()
	res := run(t, DialectRevised, g, `
		MATCH (u:User)-[:ORDERED]->(p:Product)
		WITH u, count(p) AS orders WHERE orders >= 2
		RETURN u.name AS name, orders`)
	if res.Table.Len() != 2 {
		t.Fatalf("rows = %d, want 2 (both users ordered 2)", res.Table.Len())
	}
}

func TestAggregationGrouping(t *testing.T) {
	g, _ := fixtures.Figure1()
	res := run(t, DialectRevised, g, `
		MATCH (u:User)-[:ORDERED]->(p:Product)
		RETURN u.name AS name, count(*) AS c, collect(p.name) AS names
		ORDER BY name`)
	if res.Table.Len() != 2 {
		t.Fatalf("groups = %d", res.Table.Len())
	}
	if res.Table.Get(0, "c") != value.Int(2) {
		t.Errorf("Bob count = %v", res.Table.Get(0, "c"))
	}
	names, _ := value.AsList(res.Table.Get(0, "names"))
	if len(names) != 2 {
		t.Errorf("Bob names = %v", names)
	}
}

func TestCountStarOnEmpty(t *testing.T) {
	g := graph.New()
	res := run(t, DialectRevised, g, `MATCH (n) RETURN count(*) AS c`)
	if res.Table.Len() != 1 || res.Table.Get(0, "c") != value.Int(0) {
		t.Errorf("count(*) over empty = %v", res.Table.Get(0, "c"))
	}
}

func TestUnwind(t *testing.T) {
	g := graph.New()
	res := run(t, DialectRevised, g, `UNWIND [1,2,3] AS x RETURN x * 10 AS y`)
	if res.Table.Len() != 3 || res.Table.Get(2, "y") != value.Int(30) {
		t.Errorf("unwind result: %v", res.Table)
	}
	res = run(t, DialectRevised, g, `UNWIND null AS x RETURN x`)
	if res.Table.Len() != 0 {
		t.Error("UNWIND null should produce no rows")
	}
}

func TestDistinctOrderSkipLimit(t *testing.T) {
	g := graph.New()
	res := run(t, DialectRevised, g, `
		UNWIND [3,1,2,3,1] AS x
		RETURN DISTINCT x ORDER BY x DESC SKIP 1 LIMIT 1`)
	if res.Table.Len() != 1 || res.Table.Get(0, "x") != value.Int(2) {
		t.Errorf("result: %v", res.Table)
	}
}

func TestReturnStarExec(t *testing.T) {
	g := graph.New()
	res := run(t, DialectRevised, g, `UNWIND [1] AS x UNWIND ['a'] AS y RETURN *`)
	cols := res.Table.Columns()
	if len(cols) != 2 || cols[0] != "x" || cols[1] != "y" {
		t.Errorf("columns = %v", cols)
	}
}

func TestCreateAndReturn(t *testing.T) {
	g := graph.New()
	res := run(t, DialectRevised, g, `
		CREATE (a:User{id:1})-[r:KNOWS{since:2020}]->(b:User{id:2})
		RETURN a, r, b`)
	if g.NumNodes() != 2 || g.NumRels() != 1 {
		t.Fatalf("graph: %d nodes %d rels", g.NumNodes(), g.NumRels())
	}
	if res.Stats.NodesCreated != 2 || res.Stats.RelsCreated != 1 {
		t.Errorf("stats: %+v", res.Stats)
	}
	if _, ok := res.Table.Get(0, "r").(value.Rel); !ok {
		t.Error("r not returned as relationship")
	}
}

// Query (2): CREATE anchored on a matched node (the dotted additions of
// Figure 1).
func TestPaperQuery2(t *testing.T) {
	g, ids := fixtures.Figure1()
	res := run(t, DialectCypher9, g, `
		MATCH (u:User{id:89})
		CREATE (u)-[:ORDERED]->(:New_Product{id:0})`)
	if g.NumNodes() != 7 || g.NumRels() != 7 {
		t.Fatalf("graph: %d nodes %d rels", g.NumNodes(), g.NumRels())
	}
	if res.Stats.NodesCreated != 1 || res.Stats.RelsCreated != 1 {
		t.Errorf("stats: %+v", res.Stats)
	}
	// The new node is attached to u1.
	if len(g.Outgoing(ids["u1"])) != 3 {
		t.Error("new ORDERED relationship not attached to u1")
	}
}

// Query (3): SET with labels and properties plus REMOVE.
func TestPaperQuery3(t *testing.T) {
	for _, d := range []Dialect{DialectCypher9, DialectRevised} {
		g, _ := fixtures.Figure1()
		run(t, d, g, `
			MATCH (u:User{id:89})
			CREATE (u)-[:ORDERED]->(:New_Product{id:0})`)
		run(t, d, g, `
			MATCH (p:New_Product{id:0})
			SET p:Product, p.id=120, p.name="smartphone"
			REMOVE p:New_Product`)
		prods := g.NodeIDsByLabel("Product")
		if len(prods) != 4 {
			t.Fatalf("[%v] products = %d", d, len(prods))
		}
		if len(g.NodeIDsByLabel("New_Product")) != 0 {
			t.Errorf("[%v] New_Product label not removed", d)
		}
		found := false
		for _, id := range prods {
			n := g.Node(id)
			if g.NodeProp(n.ID, "id") == value.Int(120) && g.NodeProp(n.ID, "name") == value.String("smartphone") {
				found = true
			}
		}
		if !found {
			t.Errorf("[%v] updated product not found", d)
		}
	}
}

// The DELETE progression of Section 3: plain DELETE fails on an attached
// node, succeeds when the relationship is deleted too, and DETACH DELETE
// does it in one clause (Query (4)).
func TestPaperSection3Deletes(t *testing.T) {
	for _, d := range []Dialect{DialectCypher9, DialectRevised} {
		g, _ := fixtures.Figure1()
		run(t, d, g, `MATCH (u:User{id:89}) CREATE (u)-[:ORDERED]->(:Product{id:120})`)

		if _, err := runErr(d, g, `MATCH (p:Product{id:120}) DELETE p`); err == nil {
			t.Fatalf("[%v] DELETE of attached node should fail", d)
		}
		// Failure must roll back: node still there.
		if len(g.NodeIDsByLabel("Product")) != 4 {
			t.Fatalf("[%v] failed DELETE must not mutate", d)
		}
		res := run(t, d, g, `MATCH ()-[r]->(p:Product{id:120}) DELETE r,p`)
		if res.Stats.NodesDeleted != 1 || res.Stats.RelsDeleted != 1 {
			t.Errorf("[%v] stats: %+v", d, res.Stats)
		}
		if len(g.NodeIDsByLabel("Product")) != 3 {
			t.Errorf("[%v] delete r,p failed", d)
		}

		// DETACH DELETE variant (Query 4).
		run(t, d, g, `MATCH (u:User{id:89}) CREATE (u)-[:ORDERED]->(:Product{id:120})`)
		run(t, d, g, `MATCH (p:Product{id:120}) DETACH DELETE p`)
		if len(g.NodeIDsByLabel("Product")) != 3 {
			t.Errorf("[%v] detach delete failed", d)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("[%v] %v", d, err)
		}
	}
}

// The intertwined example of Section 3: create, mutate, delete in one
// statement.
func TestPaperIntertwined(t *testing.T) {
	g, _ := fixtures.Figure1()
	run(t, DialectCypher9, g, `
		MATCH (u:User{id:89})
		CREATE (u)-[:ORDERED]->(p:New_Product{id:0})
		SET p:Product,p.id=120,p.name="phone"
		REMOVE p:New_Product
		DETACH DELETE p`)
	if g.NumNodes() != 6 || g.NumRels() != 6 {
		t.Errorf("graph should be back to Figure 1: %d nodes %d rels", g.NumNodes(), g.NumRels())
	}
}

// Query (5): MERGE in a reading context, creating v2 for the unoffered
// product (the dashed additions of Figure 1).
func TestPaperQuery5(t *testing.T) {
	g, ids := fixtures.Figure1()
	res := run(t, DialectCypher9, g, `
		MATCH (p:Product)
		MERGE (p)<-[:OFFERS]-(v:Vendor)
		RETURN p,v`)
	if res.Table.Len() != 3 {
		t.Fatalf("rows = %d, want 3", res.Table.Len())
	}
	if len(g.NodeIDsByLabel("Vendor")) != 2 {
		t.Errorf("vendors = %d, want 2 (v2 created)", len(g.NodeIDsByLabel("Vendor")))
	}
	// p3 now offered by the new vendor: ORDERED from u1 and u2, plus the
	// new OFFERS from v2.
	if len(g.Incoming(ids["p3"])) != 3 {
		t.Errorf("p3 incoming = %d", len(g.Incoming(ids["p3"])))
	}
	if res.Stats.NodesCreated != 1 || res.Stats.RelsCreated != 1 {
		t.Errorf("stats: %+v", res.Stats)
	}
}

func TestUnionSemantics(t *testing.T) {
	g, _ := fixtures.Figure1()
	res := run(t, DialectRevised, g, `
		MATCH (u:User) RETURN u.name AS name
		UNION MATCH (v:Vendor) RETURN v.name AS name`)
	if res.Table.Len() != 3 {
		t.Errorf("union rows = %d", res.Table.Len())
	}
	// UNION dedups; UNION ALL keeps.
	res = run(t, DialectRevised, g, `
		MATCH (u:User) RETURN 'x' AS tag
		UNION MATCH (v:User) RETURN 'x' AS tag`)
	if res.Table.Len() != 1 {
		t.Errorf("UNION dedup rows = %d", res.Table.Len())
	}
	res = run(t, DialectRevised, g, `
		MATCH (u:User) RETURN 'x' AS tag
		UNION ALL MATCH (v:User) RETURN 'x' AS tag`)
	if res.Table.Len() != 4 {
		t.Errorf("UNION ALL rows = %d", res.Table.Len())
	}
	// Column mismatch errors.
	if _, err := runErr(DialectRevised, g, `RETURN 1 AS a UNION RETURN 2 AS b`); err == nil {
		t.Error("union column mismatch should fail")
	}
}

// Updates in UNION members apply left to right as side effects.
func TestUnionUpdatesSideEffects(t *testing.T) {
	g := graph.New()
	res := run(t, DialectRevised, g, `
		CREATE (:A) RETURN 1 AS one
		UNION ALL CREATE (:B) RETURN 1 AS one`)
	if g.NumNodes() != 2 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	if res.Stats.NodesCreated != 2 {
		t.Errorf("stats: %+v", res.Stats)
	}
}

func TestForeach(t *testing.T) {
	for _, d := range []Dialect{DialectCypher9, DialectRevised} {
		g := graph.New()
		run(t, d, g, `FOREACH (x IN [1,2,3] | CREATE (:N{v:x}))`)
		if len(g.NodeIDsByLabel("N")) != 3 {
			t.Errorf("[%v] foreach created %d", d, len(g.NodeIDsByLabel("N")))
		}
		// FOREACH introduces no bindings downstream.
		if _, err := runErr(d, g, `FOREACH (x IN [1] | CREATE (:M)) RETURN x`); err == nil {
			t.Errorf("[%v] foreach variable must not leak", d)
		}
	}
}

func TestParametersExec(t *testing.T) {
	g := graph.New()
	stmt, err := parser.Parse(`CREATE (n:User $props) RETURN n.name AS name`)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Config{Dialect: DialectRevised})
	params := map[string]value.Value{
		"props": value.Map{"name": value.String("alice"), "age": value.Int(3)},
	}
	res, err := e.ExecuteStatement(g, stmt, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Get(0, "name") != value.String("alice") {
		t.Errorf("param props: %v", res.Table.Get(0, "name"))
	}
}

func TestStatementRollbackOnError(t *testing.T) {
	g, _ := fixtures.Figure1()
	before := graph.Fingerprint(g)
	// The CREATE succeeds, then the ambiguous SET errors (revised):
	// everything must roll back.
	_, err := runErr(DialectRevised, g, `
		CREATE (:Extra)
		WITH 1 AS one
		MATCH (p1:Product{id:85}),(p2:Product{id:125})
		SET p1.name = p2.name`)
	if err == nil {
		t.Fatal("expected conflict error")
	}
	if graph.Fingerprint(g) != before {
		t.Error("failed statement must leave the graph untouched")
	}
}

func TestDanglingCheckAtStatementEnd(t *testing.T) {
	g, _ := fixtures.Figure1()
	before := graph.Fingerprint(g)
	// Legacy DELETE of a node with attached rels succeeds mid-statement
	// but the statement-end check must fail and roll back.
	_, err := runErr(DialectCypher9, g, `MATCH (u:User{id:89}) DELETE u`)
	if err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("err = %v", err)
	}
	if graph.Fingerprint(g) != before {
		t.Error("rollback failed")
	}
}

func TestReturnNotLastRejected(t *testing.T) {
	g := graph.New()
	if _, err := runErr(DialectRevised, g, `RETURN 1 AS one CREATE (:X)`); err == nil {
		t.Error("clauses after RETURN should be rejected")
	}
}

func TestDuplicateProjectionName(t *testing.T) {
	g := graph.New()
	if _, err := runErr(DialectRevised, g, `RETURN 1 AS a, 2 AS a`); err == nil {
		t.Error("duplicate column names should be rejected")
	}
}

func TestExecuteWithTable(t *testing.T) {
	g := graph.New()
	t0 := table.New("x")
	t0.AppendRow(value.Int(1))
	t0.AppendRow(value.Int(2))
	stmt, _ := parser.Parse(`CREATE (:N{v:x})`)
	_, err := NewEngine(Config{Dialect: DialectRevised}).ExecuteWithTable(g, stmt, nil, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.NodeIDsByLabel("N")) != 2 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
}

// TestResultPathAllocations bounds what a statement's rows cost on the
// way from the driving table to the result: RETURN x over a 10 000-row
// table must allocate fewer than 0.1 times per row. The scan emits
// views of the table's columns and the result adopts and appends the
// plan's columns, so what remains is per batch, not per row; a row
// slice per result row would cost ten times the bound.
func TestResultPathAllocations(t *testing.T) {
	const rows = 10000
	t0 := table.New("x")
	for i := range rows {
		t0.AppendRow(value.Int(int64(i)))
	}
	stmt, err := parser.Parse(`RETURN x`)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Config{Dialect: DialectRevised, Parallelism: 1})
	g := graph.New()
	allocs := testing.AllocsPerRun(20, func() {
		res, err := eng.ExecuteWithTable(g, stmt, nil, t0)
		if err != nil || res.Table.Len() != rows {
			t.Fatalf("RETURN x: %v", err)
		}
	})
	t.Logf("%.0f allocations for %d rows (%.3f per row)", allocs, rows, allocs/rows)
	if allocs/rows >= 0.1 {
		t.Errorf("%.0f allocations for %d rows, want fewer than %d", allocs, rows, rows/10)
	}
}

// TestBarrierIntakeAllocations bounds what the serial barriers above a
// pipeline cost per input row: grouping 10 000 driving rows into 10
// groups with count(*), sum and count(DISTINCT …), RETURN DISTINCT over
// the same rows, and ORDER BY … LIMIT 5 over them must each allocate
// fewer than 0.1 times per row. Grouping and DISTINCT keys are appended
// to reused buffers and looked up without a copy, so only a new key
// allocates; the bounded Sort drops a row that cannot reach the output
// before it copies anything. A key string, key slice or row copy per
// input row would cost ten times the bound.
func TestBarrierIntakeAllocations(t *testing.T) {
	const rows = 10000
	t0 := table.New("g", "x")
	for i := range rows {
		t0.AppendRow(value.Int(int64(i%10)), value.Int(int64(i%100)))
	}
	cases := []struct {
		q    string
		want int
	}{
		{`RETURN g, count(*) AS c, sum(x) AS s, count(DISTINCT x) AS d`, 10},
		{`RETURN DISTINCT g, x`, 100},
		{`RETURN x ORDER BY x LIMIT 5`, 5},
	}
	eng := NewEngine(Config{Dialect: DialectRevised, Parallelism: 1})
	g := graph.New()
	for _, c := range cases {
		stmt, err := parser.Parse(c.q)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			res, err := eng.ExecuteWithTable(g, stmt, nil, t0)
			if err != nil || res.Table.Len() != c.want {
				t.Fatalf("%s: %v", c.q, err)
			}
		})
		t.Logf("%s: %.0f allocations for %d rows (%.3f per row)", c.q, allocs, rows, allocs/rows)
		if allocs/rows >= 0.1 {
			t.Errorf("%s: %.0f allocations for %d rows, want fewer than %d", c.q, allocs, rows, rows/10)
		}
	}
}
