package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/parser"
	"repro/internal/table"
	"repro/internal/value"
)

// ---------------------------------------------------------------------
// Example 1 (Section 4.1): the id swap. Legacy SET degrades into two
// sequential assignments; revised SET performs the swap.
// ---------------------------------------------------------------------

const example1Query = `
	MATCH (p1:Product{name:"laptop"}), (p2:Product{name:"tablet"})
	SET p1.id = p2.id, p2.id = p1.id`

func TestExample1LegacySetIsSequential(t *testing.T) {
	g, ids := fixtures.Figure1() // laptop id 125, tablet id 85
	run(t, DialectCypher9, g, example1Query)
	laptop := g.Node(ids["p1"]).Props["id"]
	tablet := g.Node(ids["p3"]).Props["id"]
	// Legacy: laptop takes tablet's id, then the second item is a no-op.
	if laptop != value.Int(85) || tablet != value.Int(85) {
		t.Errorf("legacy: laptop=%v tablet=%v, want both 85", laptop, tablet)
	}
}

func TestExample1RevisedSetSwaps(t *testing.T) {
	g, ids := fixtures.Figure1()
	run(t, DialectRevised, g, example1Query)
	laptop := g.Node(ids["p1"]).Props["id"]
	tablet := g.Node(ids["p3"]).Props["id"]
	if laptop != value.Int(85) || tablet != value.Int(125) {
		t.Errorf("revised: laptop=%v tablet=%v, want swap 85/125", laptop, tablet)
	}
}

// ---------------------------------------------------------------------
// Example 2 (Section 4.1): two products share id 125 with different
// names. Legacy SET silently picks an order-dependent winner; revised
// SET aborts with a conflict.
// ---------------------------------------------------------------------

const example2Query = `
	MATCH (p1:Product{id:85}),(p2:Product{id:125})
	SET p1.name = p2.name`

func TestExample2LegacyOrderDependent(t *testing.T) {
	outcomes := make(map[string]bool)
	for _, order := range []ScanOrder{ScanForward, ScanReverse} {
		g, ids := fixtures.Figure1()
		stmt, _ := parser.Parse(example2Query)
		_, err := NewEngine(Config{Dialect: DialectCypher9, ScanOrder: order}).
			ExecuteStatement(g, stmt, nil)
		if err != nil {
			t.Fatal(err)
		}
		name, _ := value.AsString(g.Node(ids["p3"]).Props["name"])
		outcomes[string(name)] = true
	}
	// The paper: "node p3 might end up with name set to either
	// 'notebook' or 'laptop'".
	if !outcomes["notebook"] || !outcomes["laptop"] {
		t.Errorf("legacy outcomes = %v, want both notebook and laptop reachable", outcomes)
	}
}

func TestExample2RevisedConflictError(t *testing.T) {
	g, _ := fixtures.Figure1()
	before := graph.Fingerprint(g)
	_, err := runErr(DialectRevised, g, example2Query)
	var ce *graph.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("want ConflictError, got %v", err)
	}
	if graph.Fingerprint(g) != before {
		t.Error("conflicting SET must roll back")
	}
}

func TestExample2RevisedNoConflictWhenUnambiguous(t *testing.T) {
	// With distinct ids the same query is fine under revised semantics.
	g, ids := fixtures.CleanFigure1()
	run(t, DialectRevised, g, example2Query)
	if g.Node(ids["p3"]).Props["name"] != value.String("laptop") {
		t.Errorf("name = %v", g.Node(ids["p3"]).Props["name"])
	}
}

// ---------------------------------------------------------------------
// Section 4.2: the DELETE atomicity violation. Legacy: the query runs,
// SET on the deleted node is ignored, and an "empty node" reference is
// returned. Revised: strict DELETE errors immediately.
// ---------------------------------------------------------------------

const section42Query = `
	MATCH (user)-[order:ORDERED]->(product)
	DELETE user
	SET user.id = 999
	DELETE order
	RETURN user`

func TestSection42LegacyDeleteThenSet(t *testing.T) {
	// A reduced graph where deleting all matched users leaves no dangling
	// relationships at statement end: one user, one product, one order.
	g := graph.New()
	u := g.CreateNode([]string{"User"}, value.Map{"id": value.Int(89)})
	p := g.CreateNode([]string{"Product"}, nil)
	if _, err := g.CreateRel(u.ID, p.ID, "ORDERED", nil); err != nil {
		t.Fatal(err)
	}
	res := run(t, DialectCypher9, g, section42Query)
	// The query "goes through without an error and returns an empty
	// node": the reference survives in the table but the node is gone.
	if res.Table.Len() != 1 {
		t.Fatalf("rows = %d", res.Table.Len())
	}
	ref, ok := res.Table.Get(0, "user").(value.Node)
	if !ok {
		t.Fatalf("user = %v, want a (stale) node reference", res.Table.Get(0, "user"))
	}
	if g.Node(graph.NodeID(ref.ID)) != nil {
		t.Error("node should be deleted from the graph")
	}
	if g.NumNodes() != 1 || g.NumRels() != 0 {
		t.Errorf("graph: %d nodes %d rels", g.NumNodes(), g.NumRels())
	}
}

func TestSection42RevisedStrictDelete(t *testing.T) {
	g := graph.New()
	u := g.CreateNode([]string{"User"}, value.Map{"id": value.Int(89)})
	p := g.CreateNode([]string{"Product"}, nil)
	if _, err := g.CreateRel(u.ID, p.ID, "ORDERED", nil); err != nil {
		t.Fatal(err)
	}
	before := graph.Fingerprint(g)
	_, err := runErr(DialectRevised, g, section42Query)
	if err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Fatalf("want dangling-relationship error, got %v", err)
	}
	if graph.Fingerprint(g) != before {
		t.Error("strict DELETE failure must roll back")
	}
}

func TestRevisedDeleteNullsReferences(t *testing.T) {
	g := graph.New()
	g.CreateNode([]string{"User"}, nil)
	res := run(t, DialectRevised, g, `MATCH (u:User) DELETE u RETURN u`)
	if !value.IsNull(res.Table.Get(0, "u")) {
		t.Errorf("deleted reference = %v, want null (Section 7)", res.Table.Get(0, "u"))
	}
}

// ---------------------------------------------------------------------
// Example 3 / Figure 6: legacy MERGE reads its own writes, so the result
// depends on the scan order. Top-down yields Figure 6b (4 rels, the
// third record matches the creations of the first two); bottom-up yields
// Figure 6a (6 rels).
// ---------------------------------------------------------------------

const example3Query = `MERGE (user)-[:ORDERED]->(product)<-[:OFFERS]-(vendor)`

func runExample3(t *testing.T, cfg Config) *graph.Graph {
	t.Helper()
	g, tbl, _ := fixtures.Example3()
	stmt, err := parser.Parse(example3Query)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(cfg).ExecuteWithTable(g, stmt, nil, tbl); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExample3LegacyMergeOrderDependence(t *testing.T) {
	topDown := runExample3(t, Config{Dialect: DialectCypher9, ScanOrder: ScanForward})
	bottomUp := runExample3(t, Config{Dialect: DialectCypher9, ScanOrder: ScanReverse})
	if topDown.NumRels() != 4 {
		t.Errorf("top-down (Figure 6b): %d rels, want 4", topDown.NumRels())
	}
	if bottomUp.NumRels() != 6 {
		t.Errorf("bottom-up (Figure 6a): %d rels, want 6", bottomUp.NumRels())
	}
	if graph.Isomorphic(topDown, bottomUp) {
		t.Error("the two orders must yield non-isomorphic graphs (the Example 3 nondeterminism)")
	}
}

// ---------------------------------------------------------------------
// Example 4: the proposed semantics are order-independent on the
// Example 3 workload. Atomic/Grouping give Figure 6a (6 rels); all
// collapse variants give Figure 6b (4 rels).
// ---------------------------------------------------------------------

func TestExample4VariantsOnFigure6(t *testing.T) {
	cases := []struct {
		strategy MergeStrategy
		rels     int
	}{
		{StrategyAtomic, 6},
		{StrategyGrouping, 6},
		{StrategyWeakCollapse, 4},
		{StrategyCollapse, 4},
		{StrategyStrongCollapse, 4},
	}
	for _, c := range cases {
		var graphs []*graph.Graph
		for _, order := range []ScanOrder{ScanForward, ScanReverse} {
			g := runExample3(t, Config{
				Dialect:       DialectCypher9,
				MergeStrategy: c.strategy,
				ScanOrder:     order,
			})
			if g.NumRels() != c.rels {
				t.Errorf("%v: %d rels, want %d", c.strategy, g.NumRels(), c.rels)
			}
			if g.NumNodes() != 5 {
				t.Errorf("%v: %d nodes, want 5 (all pre-existing)", c.strategy, g.NumNodes())
			}
			graphs = append(graphs, g)
		}
		if !graph.Isomorphic(graphs[0], graphs[1]) {
			t.Errorf("%v must be order-independent", c.strategy)
		}
	}
}

// ---------------------------------------------------------------------
// Example 5 / Figure 7: the order-import table with duplicates and
// nulls on an empty graph.
//
//	Atomic  -> 12 nodes / 6 rels  (Figure 7a)
//	Grouping -> 8 nodes / 4 rels  (Figure 7b)
//	collapse family -> 4 nodes / 4 rels (Figure 7c)
// ---------------------------------------------------------------------

const example5Query = `MERGE ALL (:User{id:cid})-[:ORDERED]->(:Product{id:pid})`

func runExample5(t *testing.T, strategy MergeStrategy) (*graph.Graph, *Result) {
	t.Helper()
	g := graph.New()
	tbl := fixtures.Example5Table()
	stmt, err := parser.Parse(example5Query)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dialect: DialectRevised, MergeStrategy: strategy}
	res, err := NewEngine(cfg).ExecuteWithTable(g, stmt, nil, tbl)
	if err != nil {
		t.Fatal(err)
	}
	return g, res
}

func TestExample5Figure7(t *testing.T) {
	cases := []struct {
		strategy    MergeStrategy
		nodes, rels int
		figure      string
	}{
		{StrategyAtomic, 12, 6, "7a"},
		{StrategyGrouping, 8, 4, "7b"},
		{StrategyWeakCollapse, 4, 4, "7c"},
		{StrategyCollapse, 4, 4, "7c"},
		{StrategyStrongCollapse, 4, 4, "7c"},
	}
	for _, c := range cases {
		g, _ := runExample5(t, c.strategy)
		if g.NumNodes() != c.nodes || g.NumRels() != c.rels {
			t.Errorf("%v (Figure %s): %d nodes / %d rels, want %d / %d",
				c.strategy, c.figure, g.NumNodes(), g.NumRels(), c.nodes, c.rels)
		}
	}
}

func TestExample5Figure7cShape(t *testing.T) {
	// Under the collapse family there is exactly one User 98, one User
	// 99, one Product 125 and one property-less Product (the null pid),
	// with rels 98->125, 98->null, 99->125, 99->null.
	g, _ := runExample5(t, StrategyStrongCollapse)
	users := g.NodeIDsByLabel("User")
	products := g.NodeIDsByLabel("Product")
	if len(users) != 2 || len(products) != 2 {
		t.Fatalf("users=%d products=%d", len(users), len(products))
	}
	nullProducts := 0
	for _, id := range products {
		if _, has := g.Node(id).Props["id"]; !has {
			nullProducts++
		}
	}
	if nullProducts != 1 {
		t.Errorf("null-id products = %d, want 1 (nulls collapse together)", nullProducts)
	}
	for _, uid := range users {
		if len(g.Outgoing(uid)) != 2 {
			t.Errorf("user %d has %d orders, want 2", uid, len(g.Outgoing(uid)))
		}
	}
}

// MERGE ALL / MERGE SAME surface forms map to Atomic / Strong Collapse.
func TestSection7MergeAllAndSameForms(t *testing.T) {
	g := graph.New()
	tbl := fixtures.Example5Table()
	stmt, _ := parser.Parse(example5Query) // MERGE ALL
	if _, err := NewEngine(Config{Dialect: DialectRevised}).ExecuteWithTable(g, stmt, nil, tbl); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 12 || g.NumRels() != 6 {
		t.Errorf("MERGE ALL: %d/%d, want 12/6 (Figure 7a)", g.NumNodes(), g.NumRels())
	}

	g2 := graph.New()
	stmt2, _ := parser.Parse(`MERGE SAME (:User{id:cid})-[:ORDERED]->(:Product{id:pid})`)
	if _, err := NewEngine(Config{Dialect: DialectRevised}).ExecuteWithTable(g2, stmt2, nil, fixtures.Example5Table()); err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 4 || g2.NumRels() != 4 {
		t.Errorf("MERGE SAME: %d/%d, want 4/4 (Figure 7c)", g2.NumNodes(), g2.NumRels())
	}
}

// ---------------------------------------------------------------------
// Example 6 / Figure 8: Weak Collapse keeps two copies of User 98
// (different pattern positions); Collapse and Strong Collapse merge them.
// ---------------------------------------------------------------------

const example6Query = `
	MERGE ALL (:User{id:bid})-[:ORDERED]->(:Product{id:pid})<-[:OFFERS]-(:User{id:sid})`

func TestExample6Figure8(t *testing.T) {
	cases := []struct {
		strategy    MergeStrategy
		nodes, rels int
		figure      string
	}{
		{StrategyAtomic, 6, 4, "8a"},
		{StrategyGrouping, 6, 4, "8a"},
		{StrategyWeakCollapse, 6, 4, "8a"},
		{StrategyCollapse, 5, 4, "8b"},
		{StrategyStrongCollapse, 5, 4, "8b"},
	}
	for _, c := range cases {
		g := graph.New()
		stmt, err := parser.Parse(example6Query)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Dialect: DialectRevised, MergeStrategy: c.strategy}
		if _, err := NewEngine(cfg).ExecuteWithTable(g, stmt, nil, fixtures.Example6Table()); err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() != c.nodes || g.NumRels() != c.rels {
			t.Errorf("%v (Figure %s): %d nodes / %d rels, want %d / %d",
				c.strategy, c.figure, g.NumNodes(), g.NumRels(), c.nodes, c.rels)
		}
	}
}

// ---------------------------------------------------------------------
// Example 7 / Figure 9: the clickstream path. Collapse keeps both
// p1->p2 :TO relationships (different positions, Figure 9a, 5 rels);
// Strong Collapse merges them (Figure 9b, 4 rels). Re-matching the
// pattern after Strong Collapse fails under relationship isomorphism but
// succeeds under homomorphism.
// ---------------------------------------------------------------------

const example7Query = `
	MERGE ALL (a)-[:TO]->(b)-[:TO]->(c)-[:TO]->(d)-[:TO]->(e)-[:BOUGHT]->(tgt)`

func runExample7(t *testing.T, strategy MergeStrategy) *graph.Graph {
	t.Helper()
	g, tbl, _ := fixtures.Example7()
	stmt, err := parser.Parse(example7Query)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dialect: DialectRevised, MergeStrategy: strategy}
	if _, err := NewEngine(cfg).ExecuteWithTable(g, stmt, nil, tbl); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExample7Figure9(t *testing.T) {
	collapse := runExample7(t, StrategyCollapse)
	if collapse.NumRels() != 5 {
		t.Errorf("Collapse (Figure 9a): %d rels, want 5", collapse.NumRels())
	}
	strong := runExample7(t, StrategyStrongCollapse)
	if strong.NumRels() != 4 {
		t.Errorf("Strong Collapse (Figure 9b): %d rels, want 4", strong.NumRels())
	}
	if collapse.NumNodes() != 4 || strong.NumNodes() != 4 {
		t.Error("no new nodes should be created (all endpoints bound)")
	}
}

func TestExample7RematchIsoVsHomomorphism(t *testing.T) {
	strong := runExample7(t, StrategyStrongCollapse)
	rematch := `
		MATCH (a)-[:TO]->(b)-[:TO]->(c)-[:TO]->(d)-[:TO]->(e)-[:BOUGHT]->(tgt)
		RETURN a`
	stmt, err := parser.Parse(rematch)
	if err != nil {
		t.Fatal(err)
	}
	// Isomorphism (Cypher default): no matches after Strong Collapse.
	res, err := NewEngine(Config{Dialect: DialectRevised}).ExecuteStatement(strong, stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 0 {
		t.Errorf("isomorphic re-match found %d rows, want 0", res.Table.Len())
	}
	// Homomorphism: the pattern is matchable again.
	res, err = NewEngine(Config{Dialect: DialectRevised, MatchMode: match.Homomorphism}).ExecuteStatement(strong, stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() == 0 {
		t.Error("homomorphic re-match should succeed")
	}
}

// ---------------------------------------------------------------------
// Determinism (Section 8): the revised semantics yields the same graph
// up to id renaming for every permutation of the driving table; the
// output of MERGE ALL is T_match ⊎ T_create.
// ---------------------------------------------------------------------

func TestRevisedMergeOrderIndependence(t *testing.T) {
	for _, strategy := range []MergeStrategy{
		StrategyAtomic, StrategyGrouping, StrategyWeakCollapse,
		StrategyCollapse, StrategyStrongCollapse,
	} {
		var ref *graph.Graph
		perms := [][]int{{0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, {2, 0, 5, 1, 4, 3}}
		for _, perm := range perms {
			g := graph.New()
			tbl := fixtures.Example5Table()
			tbl.Permute(perm)
			stmt, _ := parser.Parse(example5Query)
			cfg := Config{Dialect: DialectRevised, MergeStrategy: strategy}
			if _, err := NewEngine(cfg).ExecuteWithTable(g, stmt, nil, tbl); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = g
				continue
			}
			if !graph.Isomorphic(ref, g) {
				t.Errorf("%v: permutation %v yields a different graph", strategy, perm)
			}
		}
	}
}

func TestMergeAllOutputTable(t *testing.T) {
	// Pre-create User 98 ordering Product 125 so the first two records
	// match and the rest create.
	g := graph.New()
	u := g.CreateNode([]string{"User"}, value.Map{"id": value.Int(98)})
	p := g.CreateNode([]string{"Product"}, value.Map{"id": value.Int(125)})
	if _, err := g.CreateRel(u.ID, p.ID, "ORDERED", nil); err != nil {
		t.Fatal(err)
	}
	stmt, _ := parser.Parse(`MERGE ALL (x:User{id:cid})-[:ORDERED]->(y:Product{id:pid}) RETURN cid, pid, x, y`)
	res, err := NewEngine(Config{Dialect: DialectRevised}).ExecuteWithTable(g, stmt, nil, fixtures.Example5Table())
	if err != nil {
		t.Fatal(err)
	}
	// T_match has 2 rows (records 1-2 match), T_create has 4: 6 total.
	if res.Table.Len() != 6 {
		t.Errorf("output rows = %d, want 6 (T_match ⊎ T_create)", res.Table.Len())
	}
	// 4 failing records create 4 instances: 8 new nodes + 4 rels.
	if res.Stats.NodesCreated != 8 || res.Stats.RelsCreated != 4 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

// The reported creations must equal what the graph gained, under every
// Section 6 strategy — in particular when a collapse re-creates a
// relationship between class representatives (Example 5's collapse
// family builds all four Figure 7c relationships that way).
func TestMergeStatsMatchGraphDeltas(t *testing.T) {
	type setting struct {
		name  string
		query string
		build func() (*graph.Graph, *table.Table)
	}
	empty := func(tbl func() *table.Table) func() (*graph.Graph, *table.Table) {
		return func() (*graph.Graph, *table.Table) { return graph.New(), tbl() }
	}
	settings := []setting{
		{"example5", example5Query, empty(fixtures.Example5Table)},
		{"example6", example6Query, empty(fixtures.Example6Table)},
		{"example7", example7Query, func() (*graph.Graph, *table.Table) {
			g, tbl, _ := fixtures.Example7()
			return g, tbl
		}},
	}
	check := func(name string, cfg Config, s setting, query string) {
		g, tbl := s.build()
		nodes, rels := g.NumNodes(), g.NumRels()
		stmt, err := parser.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewEngine(cfg).ExecuteWithTable(g, stmt, nil, tbl)
		if err != nil {
			t.Fatalf("%s/%s: %v", s.name, name, err)
		}
		st := res.Stats
		if st.NodesCreated-st.NodesDeleted != g.NumNodes()-nodes || st.RelsCreated-st.RelsDeleted != g.NumRels()-rels {
			t.Errorf("%s/%s: stats %+v, graph gained %d nodes / %d rels",
				s.name, name, st, g.NumNodes()-nodes, g.NumRels()-rels)
		}
	}
	for _, s := range settings {
		for _, strategy := range []MergeStrategy{
			StrategyAtomic, StrategyGrouping, StrategyWeakCollapse,
			StrategyCollapse, StrategyStrongCollapse,
		} {
			check(strategy.String(), Config{Dialect: DialectRevised, MergeStrategy: strategy}, s, s.query)
		}
		same := strings.Replace(s.query, "MERGE ALL", "MERGE SAME", 1)
		check("MERGE SAME", Config{Dialect: DialectRevised}, s, same)
	}
}

// Legacy MERGE matching still extends the table with all matches.
func TestLegacyMergeBindsMatches(t *testing.T) {
	g, _ := fixtures.Figure1()
	res := run(t, DialectCypher9, g, `
		MATCH (p:Product{name:'laptop'})
		MERGE (p)<-[:OFFERS]-(v:Vendor)
		RETURN v`)
	if res.Table.Len() != 1 {
		t.Fatalf("rows = %d", res.Table.Len())
	}
	if res.Stats.NodesCreated != 0 {
		t.Error("existing pattern must not create")
	}
}

func TestLegacyMergeOnCreateOnMatch(t *testing.T) {
	g := graph.New()
	run(t, DialectCypher9, g, `
		MERGE (n:Counter{id:1})
		ON CREATE SET n.hits = 1
		ON MATCH SET n.hits = n.hits + 1`)
	id := g.NodeIDsByLabel("Counter")[0]
	if g.Node(id).Props["hits"] != value.Int(1) {
		t.Errorf("after create: hits = %v", g.Node(id).Props["hits"])
	}
	run(t, DialectCypher9, g, `
		MERGE (n:Counter{id:1})
		ON CREATE SET n.hits = 1
		ON MATCH SET n.hits = n.hits + 1`)
	if g.Node(id).Props["hits"] != value.Int(2) {
		t.Errorf("after match: hits = %v", g.Node(id).Props["hits"])
	}
}

// Undirected legacy MERGE matches either direction but creates left to
// right (Section 7 notes the revised syntax drops this).
func TestLegacyMergeUndirected(t *testing.T) {
	g := graph.New()
	a := g.CreateNode([]string{"A"}, nil)
	b := g.CreateNode([]string{"B"}, nil)
	if _, err := g.CreateRel(b.ID, a.ID, "T", nil); err != nil {
		t.Fatal(err)
	}
	// The b->a relationship satisfies the undirected pattern: no create.
	res := run(t, DialectCypher9, g, `
		MATCH (x:A), (y:B)
		MERGE (x)-[:T]-(y)`)
	if res.Stats.RelsCreated != 0 {
		t.Errorf("undirected merge should match either direction: %+v", res.Stats)
	}
}

func TestMergeTableDrivenGrouping(t *testing.T) {
	// Grouping binds all records of a group to the same created entities.
	g := graph.New()
	tbl := table.New("k")
	tbl.AppendRow(value.Int(7))
	tbl.AppendRow(value.Int(7))
	stmt, _ := parser.Parse(`MERGE ALL (n:N{id:k}) RETURN n`)
	cfg := Config{Dialect: DialectRevised, MergeStrategy: StrategyGrouping}
	res, err := NewEngine(cfg).ExecuteWithTable(g, stmt, nil, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1 {
		t.Fatalf("nodes = %d, want 1", g.NumNodes())
	}
	if res.Table.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Table.Len())
	}
	if res.Table.Get(0, "n") != res.Table.Get(1, "n") {
		t.Error("both records must bind the same created node")
	}
}
