package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
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

// TestUpdateBarrierLiveColumns specifies the update barrier's column
// pruning: a barrier keeps only the columns its clause or a later
// clause reads, and revised DELETE nulls deleted references only in the
// columns a later clause reads, so no answer may show either. Each case
// runs in both dialects and both scan orders over the same graph and
// must give the expected table (columns, rows, update stats) or error.
// Rows compare in order under ORDER BY and as a multiset otherwise,
// since a legacy clause run in reverse emits its rows in reverse.
func TestUpdateBarrierLiveColumns(t *testing.T) {
	const setup = `CREATE (a:P{name:'a'})-[:R]->(b:P{name:'b'})-[:R]->(f:P{name:'f'}),
		(c:P{name:'c'})-[:R]->(b), (d:P{name:'d'})-[:R]->(e:P{name:'e'})`
	driving := table.New("k", "extra")
	for _, k := range []string{"a", "c"} {
		driving.AppendRow(value.String(k), value.String(k+"!"))
	}
	cases := []struct {
		name, query string
		t0          *table.Table
		ordered     bool
		want        string // columns, rows, stats; or "error: …"
		legacy      string // the Cypher 9 answer, when it differs
	}{
		{name: "RETURN * keeps every column",
			query: `UNWIND [1, 2] AS i WITH i, i * 10 AS j CREATE (:A{v: i}) RETURN *`,
			want:  "i | j\n1 | 10\n2 | 20\nstats: +2n -0n +0r -0r 0p +0l -0l"},
		{name: "WITH * keeps every column",
			query: `UNWIND [1, 2] AS i WITH i % 1 AS k, i CREATE (:A) WITH DISTINCT * RETURN k`,
			want:  "k\n0\n0\nstats: +2n -0n +0r -0r 0p +0l -0l"},
		{name: "ORDER BY reads a variable the projection drops", ordered: true,
			query: `UNWIND [3, 1, 2] AS i WITH i, -i AS k CREATE (:A{v: i}) RETURN i ORDER BY k`,
			want:  "i\n3\n2\n1\nstats: +3n -0n +0r -0r 0p +0l -0l"},
		{name: "a later MATCH reuses a bound variable",
			query:  `MATCH (p:P)-[:R]->(q) SET p.x = 1 MATCH (q)<-[:R]-(o) RETURN p.name AS p, o.name AS o`,
			want:   "p | o\n'a' | 'a'\n'a' | 'c'\n'b' | 'b'\n'c' | 'a'\n'c' | 'c'\n'd' | 'd'\nstats: +0n -0n +0r -0r 4p +0l -0l",
			legacy: "error: Cypher 9 grammar: reading clause *ast.MatchClause cannot follow update clauses without WITH (Section 4.4)"},
		{name: "a later MATCH rebinds a name a WITH dropped",
			query: `MATCH (p:P)-[:R]->(q) SET p.x = 1 WITH p MATCH (q)<-[:R]-(o) RETURN p.name AS p, o.name AS o`,
			want: "p | o\n" + "'a' | 'a'\n'a' | 'b'\n'a' | 'c'\n'a' | 'd'\n" +
				"'b' | 'a'\n'b' | 'b'\n'b' | 'c'\n'b' | 'd'\n'c' | 'a'\n'c' | 'b'\n'c' | 'c'\n'c' | 'd'\n" +
				"'d' | 'a'\n'd' | 'b'\n'd' | 'c'\n'd' | 'd'\nstats: +0n -0n +0r -0r 4p +0l -0l"},
		{name: "FOREACH body reads a driving column", ordered: true,
			query: `MATCH (p:P) WITH p, p.name AS s, p.name + '?' AS u FOREACH (x IN [1] | CREATE (:C{n: s})) WITH u MATCH (c:C) RETURN u, c.n AS n ORDER BY u, n LIMIT 3`,
			want:  "u | n\n'a?' | 'a'\n'a?' | 'b'\n'a?' | 'c'\nstats: +6n -0n +0r -0r 0p +0l -0l"},
		{name: "FOREACH declaring a bound variable",
			query: `UNWIND [1] AS x FOREACH (x IN [1] | CREATE (:Z))`,
			want:  "error: variable `x` already declared"},
		{name: "UNION of updating members",
			query: `UNWIND [1, 2] AS i WITH i, i * 2 AS k CREATE (:U{v: i}) RETURN k
				UNION MATCH (p:P{name: 'a'}) WITH p, p.name AS k, p.name + '!' AS z SET p.u = 1 RETURN k
				UNION ALL MATCH (u:U) WITH u, u.v * 10 AS k SET u.w = 0 WITH k RETURN *`,
			want: "k\n'a'\n10\n2\n20\n4\nstats: +2n -0n +0r -0r 3p +0l -0l"},
		{name: "MERGE ON CREATE SET reads a driving column",
			query:  `UNWIND [1, 2] AS i WITH i, i * 100 AS w MERGE (m:M{v: i}) ON CREATE SET m.w = w RETURN m.v AS v, m.w AS mw`,
			want:   "error: MERGE without ALL or SAME is no longer allowed (Section 7); use MERGE ALL or MERGE SAME",
			legacy: "v | mw\n1 | 100\n2 | 200\nstats: +2n -0n +0r -0r 2p +0l -0l"},
		{name: "DETACH DELETE then RETURN of the deleted and surviving entities",
			query:  `MATCH (n)-[r]->(m) DETACH DELETE n RETURN n, r, m`,
			want:   "n | r | m\nnull | null | Node(3)\nnull | null | Node(6)\nnull | null | null\nnull | null | null\nstats: +0n -4n +0r -4r 0p +0l -0l",
			legacy: "n | r | m\nNode(1) | Rel(1) | Node(2)\nNode(2) | Rel(2) | Node(3)\nNode(4) | Rel(3) | Node(2)\nNode(5) | Rel(4) | Node(6)\nstats: +0n -4n +0r -4r 0p +0l -0l"},
		{name: "DETACH DELETE last under Discard",
			query: `MATCH (v:P{name: k})-[:R]->(p) DETACH DELETE v, p`, t0: driving,
			want: "\nstats: +0n -3n +0r -3r 0p +0l -0l"},
		{name: "driving table columns under RETURN *", t0: driving,
			query: `MATCH (v:P{name: k}) SET v.seen = true RETURN *`,
			want:  "k | extra | v\n'a' | 'a!' | Node(1)\n'c' | 'c!' | Node(4)\nstats: +0n -0n +0r -0r 2p +0l -0l"},
	}
	render := func(res *Result, err error, ordered bool) string {
		if err != nil {
			return "error: " + err.Error()
		}
		lines := strings.Split(renderTable(res), "\n")
		if !ordered {
			slices.Sort(lines[1:])
		}
		return strings.Join(lines, "\n") + "\nstats: " + res.Stats.String()
	}
	for _, c := range cases {
		for _, d := range []Dialect{DialectRevised, DialectCypher9} {
			for _, order := range []ScanOrder{ScanForward, ScanReverse} {
				g := graph.New()
				if _, err := runErr(d, g, setup); err != nil {
					t.Fatal(err)
				}
				var t0 *table.Table
				if c.t0 != nil {
					t0 = c.t0.Clone()
				}
				res, err := runCfg(t, Config{Dialect: d, ScanOrder: order}, g, c.query, t0)
				want := c.want
				if d == DialectCypher9 && c.legacy != "" {
					want = c.legacy
				}
				if got := render(res, err, c.ordered); got != want {
					t.Errorf("%s (%s, %s):\ngot:\n%s\nwant:\n%s", c.name, d, order, got, want)
				}
			}
		}
	}
}
