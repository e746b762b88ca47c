package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/table"
	"repro/internal/value"
)

func TestEnumStrings(t *testing.T) {
	if DialectCypher9.String() != "cypher9" || DialectRevised.String() != "revised" {
		t.Error("Dialect.String")
	}
	for s, want := range map[MergeStrategy]string{
		StrategyFromForm: "from-form", StrategyLegacy: "legacy",
		StrategyAtomic: "atomic", StrategyGrouping: "grouping",
		StrategyWeakCollapse: "weak-collapse", StrategyCollapse: "collapse",
		StrategyStrongCollapse: "strong-collapse",
	} {
		if s.String() != want {
			t.Errorf("MergeStrategy(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	stats := UpdateStats{NodesCreated: 1, RelsDeleted: 2}
	if stats.String() == "" {
		t.Error("UpdateStats.String")
	}
	e := NewEngine(Config{Dialect: DialectRevised})
	if e.Config().Dialect != DialectRevised {
		t.Error("Engine.Config")
	}
}

// ON CREATE / ON MATCH through the atomic-family path (strategy override
// in the Cypher 9 dialect exercises applyOnSets).
func TestAtomicMergeOnCreateOnMatch(t *testing.T) {
	g := graph.New()
	pre := g.CreateNode([]string{"Counter"}, map[string]value.Value{"id": value.Int(1), "hits": value.Int(10)})

	tbl := table.New("k")
	tbl.AppendRow(value.Int(1))
	tbl.AppendRow(value.Int(2))

	stmt, err := parser.Parse(`
		MERGE (n:Counter{id:k})
		ON CREATE SET n.hits = 1
		ON MATCH SET n.hits = n.hits + 1`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dialect: DialectCypher9, MergeStrategy: StrategyAtomic}
	if _, err := NewEngine(cfg).ExecuteWithTable(g, stmt, nil, tbl); err != nil {
		t.Fatal(err)
	}
	if g.NodeProp(pre.ID, "hits") != value.Int(11) {
		t.Errorf("ON MATCH: hits = %v, want 11", g.NodeProp(pre.ID, "hits"))
	}
	created := g.NodeIDsByLabel("Counter")
	if len(created) != 2 {
		t.Fatalf("counters = %d", len(created))
	}
	for _, id := range created {
		if id == pre.ID {
			continue
		}
		if g.NodeProp(id, "hits") != value.Int(1) {
			t.Errorf("ON CREATE: hits = %v, want 1", g.NodeProp(id, "hits"))
		}
	}
}

// Collapsed entities must be remapped inside paths, lists and maps bound
// by the merge (remapValue coverage).
func TestMergeSameRemapsNestedValues(t *testing.T) {
	g := graph.New()
	tbl := table.New("k")
	tbl.AppendRow(value.Int(7))
	tbl.AppendRow(value.Int(7))
	stmt, err := parser.Parse(`
		MERGE SAME pth = (a:N{id:k})-[r:T]->(b:M{id:k})
		RETURN pth, [a, b] AS lst, {rel: r} AS mp, a, b, r`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(Config{Dialect: DialectRevised}).ExecuteWithTable(g, stmt, nil, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumRels() != 1 {
		t.Fatalf("graph: %s", graph.ComputeStats(g))
	}
	if res.Table.Len() != 2 {
		t.Fatalf("rows = %d", res.Table.Len())
	}
	// Both rows must reference the surviving entities everywhere.
	for i := 0; i < 2; i++ {
		a := res.Table.Get(i, "a").(value.Node)
		if g.Node(graph.NodeID(a.ID)) == nil {
			t.Fatal("a references a collapsed node")
		}
		r := res.Table.Get(i, "r").(value.Rel)
		if g.Rel(graph.RelID(r.ID)) == nil {
			t.Fatal("r references a collapsed relationship")
		}
		pth := res.Table.Get(i, "pth").(value.Path)
		for _, nid := range pth.Nodes {
			if g.Node(graph.NodeID(nid)) == nil {
				t.Fatal("path references a collapsed node")
			}
		}
		for _, rid := range pth.Rels {
			if g.Rel(graph.RelID(rid)) == nil {
				t.Fatal("path references a collapsed relationship")
			}
		}
		lst := res.Table.Get(i, "lst").(value.List)
		for _, el := range lst {
			if n, ok := el.(value.Node); ok && g.Node(graph.NodeID(n.ID)) == nil {
				t.Fatal("list references a collapsed node")
			}
		}
		mp := res.Table.Get(i, "mp").(value.Map)
		if rr, ok := mp["rel"].(value.Rel); ok && g.Rel(graph.RelID(rr.ID)) == nil {
			t.Fatal("map references a collapsed relationship")
		}
	}
	// The two rows bind identical representatives.
	if res.Table.Get(0, "a") != res.Table.Get(1, "a") {
		t.Error("rows disagree on the representative")
	}
}

// Legacy SET on relationships, and SET n = <rel> / <deleted entity>.
func TestLegacySetRelAndEntityCopies(t *testing.T) {
	g := graph.New()
	a := g.CreateNode([]string{"A"}, nil)
	b := g.CreateNode([]string{"B"}, nil)
	r, _ := g.CreateRel(a.ID, b.ID, "T", map[string]value.Value{"w": value.Int(1)})

	run(t, DialectCypher9, g, `MATCH ()-[r:T]->() SET r.w = 2, r.v = 3`)
	if relProp(g, r.ID, "w") != value.Int(2) || relProp(g, r.ID, "v") != value.Int(3) {
		t.Errorf("rel props = %v", g.Rel(r.ID).Props)
	}
	// Copy properties from a relationship into a node.
	run(t, DialectCypher9, g, `MATCH (x:A), ()-[r:T]->() SET x = r`)
	if g.NodeProp(a.ID, "w") != value.Int(2) {
		t.Errorf("node props after copy = %v", g.Node(a.ID).Props)
	}
	// Copy from a node into a relationship with +=.
	run(t, DialectCypher9, g, `MATCH (x:A), ()-[r:T]->() SET r += x`)
	if relProp(g, r.ID, "w") != value.Int(2) {
		t.Errorf("rel props after += = %v", g.Rel(r.ID).Props)
	}
}

// Legacy writes to deleted entities (both nodes and relationships) are
// silent no-ops, including SET = / += forms (Section 4.2).
func TestLegacyWritesToDeletedEntities(t *testing.T) {
	g := graph.New()
	g.CreateNode([]string{"N"}, nil)
	run(t, DialectCypher9, g, `
		MATCH (n:N)
		DELETE n
		SET n.x = 1
		SET n = {a: 1}
		SET n += {b: 2}
		SET n:Label
		REMOVE n.x
		REMOVE n:Label`)
	if g.NumNodes() != 0 {
		t.Error("node should be gone")
	}

	g2 := graph.New()
	a := g2.CreateNode(nil, nil)
	b := g2.CreateNode(nil, nil)
	g2.CreateRel(a.ID, b.ID, "T", nil)
	run(t, DialectCypher9, g2, `
		MATCH ()-[r:T]->()
		DELETE r
		SET r.w = 1
		SET r = {a: 1}
		REMOVE r.w`)
	if g2.NumRels() != 0 {
		t.Error("rel should be gone")
	}
}

// Revised SET = / += with node and relationship sources (coerceToPropMap).
func TestRevisedSetFromEntities(t *testing.T) {
	g := graph.New()
	a := g.CreateNode([]string{"A"}, map[string]value.Value{"x": value.Int(1)})
	bNode := g.CreateNode([]string{"B"}, nil)
	r, _ := g.CreateRel(a.ID, bNode.ID, "T", map[string]value.Value{"w": value.Int(5)})

	run(t, DialectRevised, g, `MATCH (b:B), ()-[r:T]->() SET b = r`)
	if g.NodeProp(bNode.ID, "w") != value.Int(5) {
		t.Errorf("b props = %v", g.Node(bNode.ID).Props)
	}
	run(t, DialectRevised, g, `MATCH (a:A), (b:B) SET b += a`)
	if g.NodeProp(bNode.ID, "x") != value.Int(1) || g.NodeProp(bNode.ID, "w") != value.Int(5) {
		t.Errorf("b props after += = %v", g.Node(bNode.ID).Props)
	}
	if _, err := runErr(DialectRevised, g, `MATCH (b:B) SET b += 5`); err == nil {
		t.Error("SET += scalar should error")
	}
	_ = r
}

// Revised DELETE nulls references nested in lists, maps and paths.
func TestRevisedDeleteNullsNestedReferences(t *testing.T) {
	g := graph.New()
	a := g.CreateNode([]string{"A"}, nil)
	b := g.CreateNode([]string{"B"}, nil)
	if _, err := g.CreateRel(a.ID, b.ID, "T", nil); err != nil {
		t.Fatal(err)
	}
	res := run(t, DialectRevised, g, `
		MATCH pth = (x:A)-[r:T]->(y:B)
		WITH pth, x, r, [x, 1] AS lst, {node: x} AS mp
		DETACH DELETE x
		RETURN pth, lst, mp, r`)
	if !value.IsNull(res.Table.Get(0, "pth")) {
		t.Error("path touching deleted node should be null")
	}
	lst := res.Table.Get(0, "lst").(value.List)
	if !value.IsNull(lst[0]) || lst[1] != value.Int(1) {
		t.Errorf("list nulling = %v", lst)
	}
	mp := res.Table.Get(0, "mp").(value.Map)
	if !value.IsNull(mp["node"]) {
		t.Errorf("map nulling = %v", mp)
	}
	if !value.IsNull(res.Table.Get(0, "r")) {
		t.Error("detached relationship reference should be null")
	}
}

// Grouping strategy on patterns with relationship properties groups by
// them as well.
func TestGroupingKeyIncludesRelProps(t *testing.T) {
	g := graph.New()
	tbl := table.New("k", "w")
	tbl.AppendRow(value.Int(1), value.Int(10))
	tbl.AppendRow(value.Int(1), value.Int(20)) // same nodes, different rel props
	stmt, _ := parser.Parse(`MERGE ALL (:N{id:k})-[:T{w:w}]->(:M{id:k})`)
	cfg := Config{Dialect: DialectRevised, MergeStrategy: StrategyGrouping}
	if _, err := NewEngine(cfg).ExecuteWithTable(g, stmt, nil, tbl); err != nil {
		t.Fatal(err)
	}
	// Two groups (w differs) -> 4 nodes, 2 rels.
	if g.NumNodes() != 4 || g.NumRels() != 2 {
		t.Errorf("graph: %s, want 4 nodes / 2 rels", graph.ComputeStats(g))
	}
}

// Strong Collapse with multiple pattern parts in one MERGE SAME.
func TestMergeSameMultiplePatternParts(t *testing.T) {
	g := graph.New()
	tbl := table.New("k")
	tbl.AppendRow(value.Int(1))
	tbl.AppendRow(value.Int(1))
	stmt, err := parser.Parse(`MERGE SAME (:A{id:k})-[:T]->(:B{id:k}), (:C{id:k})`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(Config{Dialect: DialectRevised}).ExecuteWithTable(g, stmt, nil, tbl); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumRels() != 1 {
		t.Errorf("graph: %s, want 3 nodes / 1 rel", graph.ComputeStats(g))
	}
}

// Merge stats reflect post-collapse counts.
func TestMergeSameStats(t *testing.T) {
	g := graph.New()
	tbl := table.New("k")
	for i := 0; i < 4; i++ {
		tbl.AppendRow(value.Int(9))
	}
	stmt, _ := parser.Parse(`MERGE SAME (:N{id:k})-[:T]->(:M{id:k})`)
	res, err := NewEngine(Config{Dialect: DialectRevised}).ExecuteWithTable(g, stmt, nil, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesCreated != 2 || res.Stats.RelsCreated != 1 {
		t.Errorf("stats = %+v, want 2 nodes / 1 rel created", res.Stats)
	}
}

// A MERGE SAME whose collapse leaves a relationship with collapsed
// endpoints exercises the physical-rewrite branch (no member has
// representative endpoints).
func TestMergeSameEndpointRewrite(t *testing.T) {
	// Records differ in an auxiliary column not present in the pattern,
	// so Atomic creation yields distinct node copies that collapse.
	g := graph.New()
	tbl := table.New("k", "noise")
	tbl.AppendRow(value.Int(1), value.String("x"))
	tbl.AppendRow(value.Int(1), value.String("y"))
	stmt, _ := parser.Parse(`MERGE ALL (:N{id:k})-[:T]->(:M{id:k})`)
	cfg := Config{Dialect: DialectRevised, MergeStrategy: StrategyStrongCollapse}
	if _, err := NewEngine(cfg).ExecuteWithTable(g, stmt, nil, tbl); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumRels() != 1 {
		t.Errorf("graph: %s, want 2 nodes / 1 rel", graph.ComputeStats(g))
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

// relProp returns relationship id's property key, nil when absent.
func relProp(g *graph.Graph, id graph.RelID, key string) value.Value {
	v, _ := g.Prop(g.Rel(id).Props, key)
	return v
}
