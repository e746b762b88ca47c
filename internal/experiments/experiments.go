// Package experiments regenerates every figure and worked example of
// "Updating Graph Databases with Cypher" (Green et al., PVLDB 2019) and
// reports paper-expected versus measured outcomes. The experiment ids
// E01-E11 are indexed in the registry below; cmd/experiments is the CLI
// driver (`go run ./cmd/experiments`), and ARCHITECTURE.md describes
// the engine layers they exercise.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/parser"
	"repro/internal/table"
	"repro/internal/value"
	"repro/internal/workload"
)

// Report is the outcome of one experiment.
type Report struct {
	ID    string
	Title string
	Lines []string
	Pass  bool
}

func (r *Report) check(ok bool, format string, args ...any) {
	status := "ok  "
	if !ok {
		status = "FAIL"
		r.Pass = false
	}
	r.Lines = append(r.Lines, fmt.Sprintf("[%s] %s", status, fmt.Sprintf(format, args...)))
}

func (r *Report) note(format string, args ...any) {
	r.Lines = append(r.Lines, "       "+fmt.Sprintf(format, args...))
}

type experiment struct {
	id    string
	title string
	run   func(r *Report) error
}

var registry = []experiment{
	{"E01", "Figure 1 and Queries (1)-(5), Sections 2-3", runE01},
	{"E02", "Example 1: SET swap (legacy vs revised)", runE02},
	{"E03", "Example 2: ambiguous SET (legacy nondeterminism vs revised error)", runE03},
	{"E04", "Section 4.2: DELETE atomicity violation (legacy) vs strict DELETE (revised)", runE04},
	{"E05", "Example 3 / Figure 6: legacy MERGE order dependence", runE05},
	{"E06", "Example 4: proposed MERGE semantics on the Figure 6 workload", runE06},
	{"E07", "Example 5 / Figure 7: order import under all MERGE strategies", runE07},
	{"E08", "Example 6 / Figure 8: Weak Collapse vs Collapse", runE08},
	{"E09", "Example 7 / Figure 9: Collapse vs Strong Collapse; iso vs homomorphism re-match", runE09},
	{"E10", "Figures 2-5 vs Figure 10: grammar acceptance matrix", runE10},
	{"E11", "Section 8 determinism: permutation invariance up to id renaming", runE11},
}

// IDs lists the experiment ids in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Title returns the title for an experiment id.
func Title(id string) string {
	for _, e := range registry {
		if e.id == id {
			return e.title
		}
	}
	return ""
}

// Run executes one experiment by id.
func Run(id string) (*Report, error) {
	for _, e := range registry {
		if e.id == id {
			r := &Report{ID: e.id, Title: e.title, Pass: true}
			if err := e.run(r); err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			return r, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (known: %v)", id, IDs())
}

// RunAll executes every experiment in order.
func RunAll() ([]*Report, error) {
	var out []*Report
	for _, id := range IDs() {
		r, err := Run(id)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// --- helpers ---------------------------------------------------------

func exec(cfg core.Config, g *graph.Graph, query string, t0 *table.Table) (*core.Result, error) {
	stmt, err := parser.Parse(query)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(cfg).ExecuteWithTable(g, stmt, nil, t0)
}

func shape(g *graph.Graph) string {
	return fmt.Sprintf("%d nodes / %d rels", g.NumNodes(), g.NumRels())
}

// --- E01: running example --------------------------------------------

func runE01(r *Report) error {
	g, _ := fixtures.Figure1()
	r.note("initial graph (Figure 1 solid lines): %s", graph.ComputeStats(g))
	r.check(g.NumNodes() == 6 && g.NumRels() == 6, "Figure 1 base: paper 6 nodes / 6 rels, measured %s", shape(g))

	cfg := core.Config{Dialect: core.DialectCypher9}

	res, err := exec(cfg, g, `
		MATCH (p:Product)<-[:OFFERS]-(v:Vendor)-[:OFFERS]->(q:Product)
		WHERE p.name = "laptop" RETURN v`, nil)
	if err != nil {
		return err
	}
	r.check(res.Table.Len() == 1, "Query (1): paper one record (v:v1), measured %d record(s)", res.Table.Len())

	if _, err := exec(cfg, g, `
		MATCH (u:User{id:89})
		CREATE (u)-[:ORDERED]->(:New_Product{id:0})`, nil); err != nil {
		return err
	}
	r.check(g.NumNodes() == 7 && g.NumRels() == 7,
		"Query (2): paper adds node p4 + ORDERED rel (dotted), measured %s", shape(g))

	if _, err := exec(cfg, g, `
		MATCH (p:New_Product{id:0})
		SET p:Product, p.id=120, p.name="smartphone"
		REMOVE p:New_Product`, nil); err != nil {
		return err
	}
	r.check(len(g.NodeIDsByLabel("New_Product")) == 0 && len(g.NodeIDsByLabel("Product")) == 4,
		"Query (3): paper relabels p4 to :Product with id 120, measured Products=%d New_Products=%d",
		len(g.NodeIDsByLabel("Product")), len(g.NodeIDsByLabel("New_Product")))

	_, err = exec(cfg, g, `MATCH (p:Product{id:120}) DELETE p`, nil)
	r.check(err != nil, "DELETE of attached p4: paper 'would fail', measured error=%v", err != nil)

	if _, err := exec(cfg, g, `MATCH ()-[rel]->(p:Product{id:120}) DELETE rel,p`, nil); err != nil {
		return err
	}
	r.check(g.NumNodes() == 6 && g.NumRels() == 6,
		"DELETE rel,p: paper removes p4 and its relationship, measured %s", shape(g))

	// Query (4): recreate then DETACH DELETE.
	if _, err := exec(cfg, g, `MATCH (u:User{id:89}) CREATE (u)-[:ORDERED]->(:Product{id:120})`, nil); err != nil {
		return err
	}
	if _, err := exec(cfg, g, `MATCH (p:Product{id:120}) DETACH DELETE p`, nil); err != nil {
		return err
	}
	r.check(g.NumNodes() == 6 && g.NumRels() == 6, "Query (4) DETACH DELETE: measured %s", shape(g))

	// Query (5): MERGE creates v2 + OFFERS for the unoffered product.
	res, err = exec(cfg, g, `
		MATCH (p:Product)
		MERGE (p)<-[:OFFERS]-(v:Vendor)
		RETURN p,v`, nil)
	if err != nil {
		return err
	}
	r.check(res.Table.Len() == 3 && len(g.NodeIDsByLabel("Vendor")) == 2,
		"Query (5): paper returns 3 product/vendor pairs and creates v2 (dashed), measured %d rows, %d vendors",
		res.Table.Len(), len(g.NodeIDsByLabel("Vendor")))
	return nil
}

// --- E02: Example 1 ---------------------------------------------------

func runE02(r *Report) error {
	query := `
		MATCH (p1:Product{name:"laptop"}), (p2:Product{name:"tablet"})
		SET p1.id = p2.id, p2.id = p1.id`

	g, ids := fixtures.Figure1()
	if _, err := exec(core.Config{Dialect: core.DialectCypher9}, g, query, nil); err != nil {
		return err
	}
	laptop, tablet := g.Node(ids["p1"]).Props["id"], g.Node(ids["p3"]).Props["id"]
	r.check(laptop == value.Int(85) && tablet == value.Int(85),
		"legacy: paper 'both products bear the same ID', measured laptop=%v tablet=%v", laptop, tablet)

	g2, ids2 := fixtures.Figure1()
	if _, err := exec(core.Config{Dialect: core.DialectRevised}, g2, query, nil); err != nil {
		return err
	}
	laptop2, tablet2 := g2.Node(ids2["p1"]).Props["id"], g2.Node(ids2["p3"]).Props["id"]
	r.check(laptop2 == value.Int(85) && tablet2 == value.Int(125),
		"revised: paper 'should actually switch IDs', measured laptop=%v tablet=%v", laptop2, tablet2)
	return nil
}

// --- E03: Example 2 ---------------------------------------------------

func runE03(r *Report) error {
	query := `
		MATCH (p1:Product{id:85}),(p2:Product{id:125})
		SET p1.name = p2.name`

	outcomes := map[string]bool{}
	for _, order := range []core.ScanOrder{core.ScanForward, core.ScanReverse} {
		g, ids := fixtures.Figure1()
		if _, err := exec(core.Config{Dialect: core.DialectCypher9, ScanOrder: order}, g, query, nil); err != nil {
			return err
		}
		name, _ := value.AsString(g.Node(ids["p3"]).Props["name"])
		outcomes[string(name)] = true
	}
	var keys []string
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r.check(outcomes["laptop"] && outcomes["notebook"],
		"legacy: paper 'name set to either notebook or laptop' depending on order; measured outcomes %v", keys)

	g, _ := fixtures.Figure1()
	_, err := exec(core.Config{Dialect: core.DialectRevised}, g, query, nil)
	r.check(err != nil, "revised: paper 'should abort with an error'; measured error: %v", err)
	return nil
}

// --- E04: Section 4.2 -------------------------------------------------

func runE04(r *Report) error {
	query := `
		MATCH (user)-[order:ORDERED]->(product)
		DELETE user
		SET user.id = 999
		DELETE order
		RETURN user`

	build := func() *graph.Graph {
		g := graph.New()
		u := g.CreateNode([]string{"User"}, value.Map{"id": value.Int(89)})
		p := g.CreateNode([]string{"Product"}, nil)
		if _, err := g.CreateRel(u.ID, p.ID, "ORDERED", nil); err != nil {
			panic(err)
		}
		return g
	}

	g := build()
	res, err := exec(core.Config{Dialect: core.DialectCypher9}, g, query, nil)
	if err != nil {
		return err
	}
	_, isNodeRef := res.Table.Get(0, "user").(value.Node)
	r.check(isNodeRef && g.NumNodes() == 1,
		"legacy: paper 'goes through without an error and returns an empty node'; measured stale ref=%v, %s",
		isNodeRef, shape(g))
	r.note("mid-statement the graph held a dangling ORDERED relationship (paper: 'illegal state')")

	g2 := build()
	_, err = exec(core.Config{Dialect: core.DialectRevised}, g2, query, nil)
	r.check(err != nil, "revised: paper requires an error for non-detached delete; measured: %v", err)
	r.check(g2.NumNodes() == 2 && g2.NumRels() == 1, "revised: failed statement rolled back, measured %s", shape(g2))
	return nil
}

// --- E05: Example 3 / Figure 6 ----------------------------------------

const example3Query = `MERGE (user)-[:ORDERED]->(product)<-[:OFFERS]-(vendor)`

func runE05(r *Report) error {
	runOrder := func(order core.ScanOrder) (*graph.Graph, error) {
		g, tbl, _ := fixtures.Example3()
		_, err := exec(core.Config{Dialect: core.DialectCypher9, ScanOrder: order}, g, example3Query, tbl)
		return g, err
	}
	topDown, err := runOrder(core.ScanForward)
	if err != nil {
		return err
	}
	bottomUp, err := runOrder(core.ScanReverse)
	if err != nil {
		return err
	}
	r.check(topDown.NumRels() == 4,
		"top-down: paper Figure 6b (u1->p->v2 matched after earlier creations), measured %s", shape(topDown))
	r.check(bottomUp.NumRels() == 6,
		"bottom-up: paper Figure 6a (all three paths created), measured %s", shape(bottomUp))
	r.check(!graph.Isomorphic(topDown, bottomUp),
		"the two orders differ (paper: 'the behavior of a MERGE clause may be nondeterministic')")
	return nil
}

// --- E06: Example 4 ---------------------------------------------------

func runE06(r *Report) error {
	cases := []struct {
		strategy core.MergeStrategy
		rels     int
		figure   string
	}{
		{core.StrategyAtomic, 6, "6a"},
		{core.StrategyGrouping, 6, "6a"},
		{core.StrategyWeakCollapse, 4, "6b"},
		{core.StrategyCollapse, 4, "6b"},
		{core.StrategyStrongCollapse, 4, "6b"},
	}
	for _, c := range cases {
		var graphs []*graph.Graph
		for _, order := range []core.ScanOrder{core.ScanForward, core.ScanReverse} {
			g, tbl, _ := fixtures.Example3()
			cfg := core.Config{Dialect: core.DialectCypher9, MergeStrategy: c.strategy, ScanOrder: order}
			if _, err := exec(cfg, g, example3Query, tbl); err != nil {
				return err
			}
			graphs = append(graphs, g)
		}
		orderFree := graph.Isomorphic(graphs[0], graphs[1])
		r.check(graphs[0].NumRels() == c.rels && orderFree,
			"%-15s paper Figure %s (%d rels), order-independent; measured %s, order-independent=%v",
			c.strategy.String()+":", c.figure, c.rels, shape(graphs[0]), orderFree)
	}
	return nil
}

// --- E07: Example 5 / Figure 7 ----------------------------------------

func runE07(r *Report) error {
	cases := []struct {
		strategy    core.MergeStrategy
		nodes, rels int
		figure      string
	}{
		{core.StrategyAtomic, 12, 6, "7a"},
		{core.StrategyGrouping, 8, 4, "7b"},
		{core.StrategyWeakCollapse, 4, 4, "7c"},
		{core.StrategyCollapse, 4, 4, "7c"},
		{core.StrategyStrongCollapse, 4, 4, "7c"},
	}
	for _, c := range cases {
		g := graph.New()
		cfg := core.Config{Dialect: core.DialectRevised, MergeStrategy: c.strategy}
		if _, err := exec(cfg, g, `MERGE ALL (:User{id:cid})-[:ORDERED]->(:Product{id:pid})`, fixtures.Example5Table()); err != nil {
			return err
		}
		r.check(g.NumNodes() == c.nodes && g.NumRels() == c.rels,
			"%-15s paper Figure %s (%d nodes / %d rels), measured %s",
			c.strategy.String()+":", c.figure, c.nodes, c.rels, shape(g))
	}
	r.note("Figure 7c detail: the two null-pid orders collapse onto one property-less Product node")
	return nil
}

// --- E08: Example 6 / Figure 8 ----------------------------------------

func runE08(r *Report) error {
	query := `MERGE ALL (:User{id:bid})-[:ORDERED]->(:Product{id:pid})<-[:OFFERS]-(:User{id:sid})`
	cases := []struct {
		strategy core.MergeStrategy
		nodes    int
		figure   string
	}{
		{core.StrategyAtomic, 6, "8a"},
		{core.StrategyGrouping, 6, "8a"},
		{core.StrategyWeakCollapse, 6, "8a"},
		{core.StrategyCollapse, 5, "8b"},
		{core.StrategyStrongCollapse, 5, "8b"},
	}
	for _, c := range cases {
		g := graph.New()
		cfg := core.Config{Dialect: core.DialectRevised, MergeStrategy: c.strategy}
		if _, err := exec(cfg, g, query, fixtures.Example6Table()); err != nil {
			return err
		}
		r.check(g.NumNodes() == c.nodes && g.NumRels() == 4,
			"%-15s paper Figure %s (%d nodes / 4 rels), measured %s",
			c.strategy.String()+":", c.figure, c.nodes, shape(g))
	}
	r.note("the two copies of :User{id:98} sit at different pattern positions; only (Strong) Collapse merges them")
	return nil
}

// --- E09: Example 7 / Figure 9 ----------------------------------------

func runE09(r *Report) error {
	query := `MERGE ALL (a)-[:TO]->(b)-[:TO]->(c)-[:TO]->(d)-[:TO]->(e)-[:BOUGHT]->(tgt)`
	runStrategy := func(s core.MergeStrategy) (*graph.Graph, error) {
		g, tbl, _ := fixtures.Example7()
		_, err := exec(core.Config{Dialect: core.DialectRevised, MergeStrategy: s}, g, query, tbl)
		return g, err
	}
	collapse, err := runStrategy(core.StrategyCollapse)
	if err != nil {
		return err
	}
	strong, err := runStrategy(core.StrategyStrongCollapse)
	if err != nil {
		return err
	}
	r.check(collapse.NumRels() == 5, "Collapse: paper Figure 9a (two p1->p2 :TO rels kept, 5 rels), measured %s", shape(collapse))
	r.check(strong.NumRels() == 4, "Strong Collapse: paper Figure 9b (the :TO rels collapse, 4 rels), measured %s", shape(strong))

	rematch := `MATCH (a)-[:TO]->(b)-[:TO]->(c)-[:TO]->(d)-[:TO]->(e)-[:BOUGHT]->(tgt) RETURN a`
	res, err := exec(core.Config{Dialect: core.DialectRevised}, strong, rematch, nil)
	if err != nil {
		return err
	}
	r.check(res.Table.Len() == 0,
		"re-MATCH after Strong Collapse under isomorphism: paper 'no matches', measured %d", res.Table.Len())
	res, err = exec(core.Config{Dialect: core.DialectRevised, MatchMode: match.Homomorphism}, strong, rematch, nil)
	if err != nil {
		return err
	}
	r.check(res.Table.Len() > 0,
		"re-MATCH under homomorphism: paper 'will result in a positive match', measured %d row(s)", res.Table.Len())
	return nil
}

// --- E10: grammar matrix ----------------------------------------------

func runE10(r *Report) error {
	cases := []struct {
		desc    string
		src     string
		cypher9 bool
		revised bool
	}{
		{"reading after update without WITH", `CREATE (:A) MATCH (n) RETURN n`, false, true},
		{"reading after update with WITH", `CREATE (a:A) WITH a MATCH (n) RETURN n`, true, true},
		{"bare MERGE", `MERGE (a:A{id:1})`, true, false},
		{"MERGE ALL", `MERGE ALL (a:A)-[:T]->(b:B)`, false, true},
		{"MERGE SAME", `MERGE SAME (a:A)-[:T]->(b:B)`, false, true},
		{"MERGE ALL with pattern tuple", `MERGE ALL (a:A)-[:T]->(b), (c:C)-[:U]->(d)`, false, true},
		{"legacy MERGE with undirected rel", `MERGE (a:A)-[:T]-(b:B)`, true, false},
		{"MERGE SAME with undirected rel", `MERGE SAME (a:A)-[:T]-(b:B)`, false, false},
		{"CREATE with undirected rel", `CREATE (a)-[:T]-(b)`, false, false},
	}
	for _, c := range cases {
		stmt, err := parser.Parse(c.src)
		if err != nil {
			return fmt.Errorf("parse %q: %w", c.src, err)
		}
		got9 := core.Validate(stmt, core.DialectCypher9) == nil
		gotR := core.Validate(stmt, core.DialectRevised) == nil
		r.check(got9 == c.cypher9 && gotR == c.revised,
			"%-38s Cypher9 %-6v (want %v)   Figure-10 %-6v (want %v)",
			c.desc+":", got9, c.cypher9, gotR, c.revised)
	}
	r.note("note: RETURN directly after updates is accepted in both dialects; the literal Figure 2 grammar")
	r.note("would reject it, but the paper's own Query (5) uses it, so we follow the Section 4.4 prose")
	return nil
}

// --- E11: determinism at scale ----------------------------------------

func runE11(r *Report) error {
	const rows = 200
	imp := workload.DefaultOrderImport(rows)
	query := `MERGE ALL (:User{id:cid})-[:ORDERED]->(:Product{id:pid})`

	for _, s := range []core.MergeStrategy{
		core.StrategyAtomic, core.StrategyGrouping, core.StrategyStrongCollapse,
	} {
		var fp string
		same := true
		for seed := int64(1); seed <= 5; seed++ {
			tbl := imp.Build()
			tbl.Permute(workload.Shuffle(tbl.Len(), seed))
			g := graph.New()
			cfg := core.Config{Dialect: core.DialectRevised, MergeStrategy: s}
			if _, err := exec(cfg, g, query, tbl); err != nil {
				return err
			}
			f := graph.Fingerprint(g)
			if fp == "" {
				fp = f
			} else if f != fp {
				same = false
			}
		}
		r.check(same, "%-15s 5 random permutations of a %d-row import yield isomorphic graphs: %v",
			s.String()+":", rows, same)
	}

	// Legacy MERGE on the same workload: count distinct outcomes.
	distinct := map[string]bool{}
	for seed := int64(1); seed <= 5; seed++ {
		g, tbl, _ := fixtures.Example3()
		tbl.Permute(workload.Shuffle(tbl.Len(), seed))
		cfg := core.Config{Dialect: core.DialectCypher9}
		if _, err := exec(cfg, g, example3Query, tbl); err != nil {
			return err
		}
		distinct[graph.Fingerprint(g)] = true
	}
	r.check(len(distinct) > 1,
		"legacy MERGE:    permutations of the Example 3 table yield %d distinct graphs (nondeterministic)", len(distinct))
	return nil
}
