package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/table"
	"repro/internal/value"
)

// graphState is what the stats test compares before and after a
// statement: each node's labels and each entity's properties.
type graphState struct {
	labels map[graph.NodeID]map[string]bool
	props  map[graph.EntityRef]value.Map
}

func stateOf(g *graph.Graph) graphState {
	s := graphState{labels: map[graph.NodeID]map[string]bool{}, props: map[graph.EntityRef]value.Map{}}
	for _, id := range g.NodeIDs() {
		n := g.Node(id)
		s.labels[id] = map[string]bool{}
		for _, l := range g.LabelNames(n) {
			s.labels[id][l] = true
		}
		s.props[graph.NodeRef(id)] = g.PropMap(n.Props)
	}
	for _, id := range g.RelIDs() {
		s.props[graph.RelRef(id)] = g.PropMap(g.Rel(id).Props)
	}
	return s
}

// deltas counts, over the entities that exist before and after, the
// properties whose value changed (set, changed or removed) and the
// labels added and removed.
func (s graphState) deltas(after graphState) (props, added, removed int) {
	for ref, old := range s.props {
		cur, ok := after.props[ref]
		if !ok {
			continue
		}
		for k, v := range old {
			if w, ok := cur[k]; !ok || !value.Equivalent(v, w) {
				props++
			}
		}
		for k := range cur {
			if _, ok := old[k]; !ok {
				props++
			}
		}
	}
	for id, old := range s.labels {
		cur, ok := after.labels[id]
		if !ok {
			continue
		}
		for l := range cur {
			if !old[l] {
				added++
			}
		}
		for l := range old {
			if !cur[l] {
				removed++
			}
		}
	}
	return props, added, removed
}

// TestUpdateStatsMatchGraphDeltas runs SET, REMOVE and MERGE ... ON
// CREATE / ON MATCH statements in both dialects and under each MERGE
// strategy, and requires the reported stats to be the graph's actual
// deltas: nodes and relationships gained, and the properties written
// and labels added and removed on entities that existed before. A label
// counts only when it changes the node (SET of a label the node has,
// REMOVE of one it lacks, count nothing); a property write counts per
// written item, and every property write here changes the graph, so
// the two agree.
func TestUpdateStatsMatchGraphDeltas(t *testing.T) {
	setup := `CREATE (:A{p: 1})-[:R{w: 1}]->(:B), (:M{k: 1}), (:X{k: 1}), (:X{k: 2})`
	merge := `MATCH (x:X) WITH x, x.k AS k MERGE (a:M{k: k}) ON CREATE SET x.c = 1 ON MATCH SET x.m = 1`
	both := []Config{{Dialect: DialectRevised}, {Dialect: DialectCypher9}}
	cases := []struct {
		q    string
		cfgs []Config
	}{
		{`MATCH (n:A) SET n:L`, both},
		{`MATCH (n:A) REMOVE n.p`, both},
		{`MATCH (n:A) REMOVE n:A`, both},
		{`MATCH (n:A) SET n:A`, both},
		{`MATCH (n:A) REMOVE n:B`, both},
		{`MATCH (n:A) SET n.q = n.p + 1, n:L, n.p = 5`, both},
		{`MATCH (n:A) REMOVE n:A, n.p SET n:K`, both},
		{`MATCH ()-[r:R]->() SET r.w = 2, r.v = 1`, both},
		{merge, []Config{
			{Dialect: DialectCypher9},
			{Dialect: DialectCypher9, MergeStrategy: StrategyAtomic},
			{Dialect: DialectCypher9, MergeStrategy: StrategyGrouping},
			{Dialect: DialectCypher9, MergeStrategy: StrategyStrongCollapse},
		}},
	}
	for _, c := range cases {
		for _, cfg := range c.cfgs {
			name := fmt.Sprintf("%s/%s: %s", cfg.Dialect, cfg.MergeStrategy, c.q)
			g := graph.New()
			run(t, DialectRevised, g, setup)
			before, nodes, rels := stateOf(g), g.NumNodes(), g.NumRels()
			stmt, err := parser.Parse(c.q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := NewEngine(cfg).ExecuteStatement(g, stmt, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			props, added, removed := before.deltas(stateOf(g))
			st := res.Stats
			if st.NodesCreated-st.NodesDeleted != g.NumNodes()-nodes || st.RelsCreated-st.RelsDeleted != g.NumRels()-rels ||
				st.PropsSet != props || st.LabelsAdded != added || st.LabelsRemoved != removed {
				t.Errorf("%s: stats %v, graph gained %d nodes / %d rels, %dp +%dl -%dl",
					name, st, g.NumNodes()-nodes, g.NumRels()-rels, props, added, removed)
			}
		}
	}
}

// TestBarrierPerRowAllocations bounds what an update barrier allocates
// per driving row, beyond the clause's own graph work: each statement
// runs over a driving table of 10 and of 1000 rows, and the allocations
// may grow by at most the stated count per row. A map per row (the
// environment a row used to be copied into) costs more than any bound
// leaves room for; the bounds cover the clause's writes (an undo entry
// per graph change, a created entity and its property list) and the
// amortized growth of the barrier's column slices.
func TestBarrierPerRowAllocations(t *testing.T) {
	// build returns a graph of n (:N{x})-[:R]->(:M) pairs, indexed on
	// :N(x), and a driving table binding each row's n, r, m and x.
	build := func(n int) (*graph.Graph, *table.Table) {
		g := graph.New()
		g.CreateIndex("N", "x")
		t0 := table.New("n", "r", "m", "x")
		for i := 0; i < n; i++ {
			a := g.CreateNode([]string{"N"}, value.Map{"x": value.Int(int64(i))})
			b := g.CreateNode([]string{"M"}, nil)
			r, _ := g.CreateRel(a.ID, b.ID, "R", nil)
			t0.AppendRow(value.Node{ID: int64(a.ID)}, value.Rel{ID: int64(r.ID)}, value.Node{ID: int64(b.ID)}, value.Int(int64(i)))
		}
		return g, t0
	}
	allocs := func(d Dialect, q string, n int) float64 {
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 5
		var total uint64
		for k := 0; k < runs; k++ {
			g, t0 := build(n)
			e := NewEngine(Config{Dialect: d})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := e.ExecuteWithTable(g, stmt, nil, t0)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s %s: %v", d, q, err)
			}
			total += after.Mallocs - before.Mallocs
		}
		return float64(total) / runs
	}
	const small, large = 10, 1000
	for _, c := range []struct {
		revised, legacy string
		per             float64 // allocations allowed per driving row
	}{
		{`SET n.y = x`, ``, 3},
		{`REMOVE n.x`, ``, 4},
		{`DELETE r, m`, ``, 4},
		{`DETACH DELETE n`, ``, 7.5},
		{`CREATE (c:C{x: x})`, ``, 8},
		{`MERGE SAME (k:N{x: x})`, `MERGE (k:N{x: x})`, 4},
		{`FOREACH (v IN [x] | SET n.y = v)`, ``, 5},
	} {
		for _, d := range []Dialect{DialectRevised, DialectCypher9} {
			q := c.revised
			if d == DialectCypher9 && c.legacy != "" {
				q = c.legacy
			}
			a, b := allocs(d, q, small), allocs(d, q, large)
			per := (b - a) / (large - small)
			t.Logf("%s %s: %.0f allocations at n=%d, %.0f at n=%d, %.2f per row", d, q, a, small, b, large, per)
			if per > c.per {
				t.Errorf("%s %s: %.2f allocations per driving row, want at most %.1f", d, q, per, c.per)
			}
		}
	}
}
