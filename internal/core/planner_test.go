package core

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/plan"
)

// renderMultiset flattens a result to its column header plus one line
// per row, row order ignored — the equivalence notion for queries whose
// enumeration order is planner-dependent.
func renderMultiset(res *Result) string {
	var rows []string
	for i := 0; i < res.Table.Len(); i++ {
		var parts []string
		for _, v := range res.Table.Values(i) {
			parts = append(parts, renderValue(v))
		}
		rows = append(rows, strings.Join(parts, " | "))
	}
	sort.Strings(rows)
	return strings.Join(res.Table.Columns(), " | ") + "\n" + strings.Join(rows, "\n")
}

// plannerEquivSetup builds a small social graph with enough label skew
// that different anchors genuinely change the enumeration order.
var plannerEquivSetup = []string{
	`CREATE (:User{name:'ada', age:36}), (:User{name:'bob', age:41}),
	        (:User{name:'cyd', age:23}), (:User{name:'dee', age:55})`,
	`CREATE (:Post{id:1, score:3}), (:Post{id:2, score:1}), (:Post{id:3, score:2})`,
	`MATCH (a:User{name:'ada'}), (b:User{name:'bob'}) CREATE (a)-[:KNOWS{w:1}]->(b)`,
	`MATCH (b:User{name:'bob'}), (c:User{name:'cyd'}) CREATE (b)-[:KNOWS{w:2}]->(c)`,
	`MATCH (c:User{name:'cyd'}), (a:User{name:'ada'}) CREATE (c)-[:KNOWS{w:3}]->(a)`,
	`MATCH (a:User{name:'ada'}), (d:User{name:'dee'}) CREATE (a)-[:KNOWS{w:4}]->(d)`,
	`MATCH (a:User{name:'ada'}), (p:Post{id:1}) CREATE (a)-[:WROTE]->(p)`,
	`MATCH (b:User{name:'bob'}), (p:Post{id:2}) CREATE (b)-[:WROTE]->(p)`,
	`MATCH (c:User{name:'cyd'}), (p:Post{id:3}) CREATE (c)-[:WROTE]->(p)`,
}

// plannerEquivQueries is the corpus of multi-part MATCH shapes: paths,
// reversed selectivity, undirected and variable-length relationships,
// named paths, cartesian parts, bound-variable connections, WHERE
// pushdown and OPTIONAL MATCH.
var plannerEquivQueries = []string{
	`MATCH (a:User)-[:KNOWS]->(b:User) RETURN a.name AS an, b.name AS bn`,
	`MATCH (a:User)-[:KNOWS]->(b:User)-[:WROTE]->(p:Post) RETURN a.name AS an, p.id AS pid`,
	`MATCH (a:User)-[:KNOWS]-(b:User) RETURN a.name AS an, b.name AS bn`,
	`MATCH (a:User)-[k:KNOWS]->(b:User) WHERE k.w > 1 AND a.age < 50 RETURN a.name AS an, k.w AS w`,
	`MATCH (a:User)-[:KNOWS*1..3]->(b:User) RETURN a.name AS an, b.name AS bn`,
	`MATCH pth = (a:User)-[:KNOWS*1..2]->(b:User)-[:WROTE]->(p:Post) RETURN a.name AS an, p.id AS pid, length(pth) AS n`,
	`MATCH (a:User)-[:WROTE]->(p:Post), (x:User)-[:KNOWS]->(a) RETURN a.name AS an, p.id AS pid, x.name AS xn`,
	`MATCH (a:User{name:'ada'}) MATCH (a)-[:KNOWS]->(b)-[:WROTE]->(p:Post) WHERE p.score >= 1 RETURN b.name AS bn, p.id AS pid`,
	`MATCH (p:Post), (a:User) WHERE a.age < 40 RETURN a.name AS an, p.id AS pid`,
	`MATCH (a:User) OPTIONAL MATCH (a)-[:WROTE]->(p:Post) WHERE p.score > 1 RETURN a.name AS an, p.id AS pid`,
	`MATCH (c:User)<-[:KNOWS]-(b:User)<-[:KNOWS]-(a:User) RETURN a.name AS an, c.name AS cn`,
}

// maxPartWidth finds the widest pattern part (node count) over all
// MATCH clauses, which bounds the forced-anchor choices worth trying.
func maxPartWidth(stmt *ast.Statement) int {
	w := 1
	for _, q := range stmt.Queries {
		for _, c := range q.Clauses {
			if mc, ok := c.(*ast.MatchClause); ok {
				for _, part := range mc.Pattern {
					if len(part.Nodes) > w {
						w = len(part.Nodes)
					}
				}
			}
		}
	}
	return w
}

// TestPlannerEquivalenceForcedAnchors is the planner's correctness
// suite: for every corpus query, the naive walk and every forced anchor
// position must produce the same result multiset as the cost-based
// default, in both dialects. (The anchor hook pins all parts of all MATCH
// clauses to one position, clamped per part, which sweeps the whole
// per-part choice space as positions range over the widest part.)
func TestPlannerEquivalenceForcedAnchors(t *testing.T) {
	base := graph.New()
	setupEng := NewEngine(Config{Dialect: DialectRevised})
	for _, s := range plannerEquivSetup {
		stmt, err := parser.Parse(s)
		if err != nil {
			t.Fatalf("setup parse: %v", err)
		}
		if _, err := setupEng.ExecuteStatement(base, stmt, nil); err != nil {
			t.Fatalf("setup exec: %v", err)
		}
	}

	for _, q := range plannerEquivQueries {
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		width := maxPartWidth(stmt)

		var want string
		first := true
		check := func(name string, cfg Config) {
			t.Helper()
			res, err := NewEngine(cfg).ExecuteStatement(base.Clone(), stmt, nil)
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
			check("default/"+dialect.String(), Config{Dialect: dialect})
			check("naive/"+dialect.String(), Config{Dialect: dialect, naivePlanner: true})
			for pos := 0; pos < width; pos++ {
				pos := pos
				cfg := Config{Dialect: dialect}
				cfg.forceAnchor = func(_ int, part *ast.PatternPart) int {
					if pos < len(part.Nodes) {
						return pos
					}
					return len(part.Nodes) - 1
				}
				check("forced/"+dialect.String(), cfg)
			}
		}
	}
}

// TestPlannerPreservesWhereErrors: pushdown pruning must not suppress
// runtime errors other WHERE conjuncts raise on complete matches — the
// planner modes must agree on errors, not just on result multisets.
func TestPlannerPreservesWhereErrors(t *testing.T) {
	g := graph.New()
	setup, err := parser.Parse(`CREATE (:N{y:1})`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(Config{Dialect: DialectRevised}).ExecuteStatement(g, setup, nil); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		// The erroring conjunct precedes a pushable false/null one.
		`MATCH (a:N) WHERE 1/0 = 1 AND a.x = 1 RETURN a.y AS y`,
		`MATCH (a:N) WHERE a.y/0 = 1 AND a.x = 1 RETURN a.y AS y`,
		// And the reverse order.
		`MATCH (a:N) WHERE a.x = 1 AND 1/0 = 1 RETURN a.y AS y`,
	}
	for _, q := range queries {
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		_, errPlanned := NewEngine(Config{Dialect: DialectRevised}).
			ExecuteStatement(g.Clone(), stmt, nil)
		_, errNaive := NewEngine(Config{Dialect: DialectRevised, naivePlanner: true}).
			ExecuteStatement(g.Clone(), stmt, nil)
		if (errPlanned == nil) != (errNaive == nil) {
			t.Errorf("%q: error divergence planned=%v naive=%v", q, errPlanned, errNaive)
		}
	}
}

// TestPlannerPreservesBindingAndPropsErrors: anchoring away from a slot
// must not suppress the seed's runtime errors — a pattern variable
// bound to a non-node value, or an inline property expression that
// errors, must fail identically under both planner modes even when the
// other end of the pattern has zero candidates.
func TestPlannerPreservesBindingAndPropsErrors(t *testing.T) {
	g := graph.New()
	setup, err := parser.Parse(`CREATE (:N{y:1})`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(Config{Dialect: DialectRevised}).ExecuteStatement(g, setup, nil); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		// `a` is bound to an integer; :L is empty, so an :L anchor would
		// never touch `a`.
		`WITH 5 AS a MATCH (a)-->(b:L) RETURN b`,
		// The property map on the written-first slot errors; again :L is
		// empty.
		`MATCH (a {k: 1/0})-->(b:L) RETURN b`,
		// A missing parameter inside a property map.
		`MATCH (a {k: $nope})-->(b:L) RETURN b`,
	}
	for _, q := range queries {
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		_, errPlanned := NewEngine(Config{Dialect: DialectRevised}).
			ExecuteStatement(g.Clone(), stmt, nil)
		_, errNaive := NewEngine(Config{Dialect: DialectRevised, naivePlanner: true}).
			ExecuteStatement(g.Clone(), stmt, nil)
		if (errPlanned == nil) != (errNaive == nil) {
			t.Errorf("%q: error divergence planned=%v naive=%v", q, errPlanned, errNaive)
		}
	}
}

// TestPlannerAnchorsRareLabel pins the headline behaviour: a rare label
// at the right end of a path is chosen as the anchor, and the visit
// counts shrink by orders of magnitude against the naive walk.
func TestPlannerAnchorsRareLabel(t *testing.T) {
	g := graph.New()
	eng := NewEngine(Config{Dialect: DialectRevised})
	mustExec := func(q string) {
		t.Helper()
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ExecuteStatement(g, stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(`UNWIND range(1, 2000) AS i CREATE (:Common{i:i})`)
	mustExec(`CREATE (:Rare{name:'hub'})`)
	mustExec(`MATCH (c:Common) WHERE c.i <= 40 MATCH (r:Rare) CREATE (c)-[:R]->(r)`)

	query := `MATCH (c:Common)-[:R]->(r:Rare) RETURN count(*) AS n`
	stmt, err := parser.Parse(query)
	if err != nil {
		t.Fatal(err)
	}

	run := func(naive bool) (int64, int64) {
		var root plan.Operator
		// Parallelism pinned to 1: the test reads the serial Match
		// operator's visit counters.
		cfg := Config{Dialect: DialectRevised, Parallelism: 1, naivePlanner: naive}
		cfg.onPlan = func(op plan.Operator) { root = op }
		res, err := NewEngine(cfg).ExecuteStatement(g.Clone(), stmt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Table.Len(); n != 1 {
			t.Fatalf("rows = %d", n)
		}
		ms := findMatchOps(root)
		if len(ms) != 1 {
			t.Fatalf("match ops = %d", len(ms))
		}
		st := ms[0].MatchStats()
		if st.Emitted != 40 {
			t.Fatalf("naive=%v emitted %d matches, want 40", naive, st.Emitted)
		}
		return st.NodeVisits, st.RelVisits
	}
	plannedNodes, _ := run(false)
	naiveNodes, _ := run(true)
	if plannedNodes > 10 {
		t.Errorf("planned walk visited %d anchor candidates, want ≤10 (the single :Rare node)", plannedNodes)
	}
	if naiveNodes < 2000 {
		t.Errorf("naive walk visited %d nodes; expected the full :Common scan", naiveNodes)
	}
}

// TestReboundPathVariableRejected: a MATCH part that reads a path
// variable sees its old value or the new path depending on whether it
// is walked before or after the part that rebinds it, so the planned
// and the naive walk returned different rows. Rebinding a bound path
// variable is rejected at plan build instead, identically in both
// planner modes.
func TestReboundPathVariableRejected(t *testing.T) {
	g := graph.New()
	setup, err := parser.Parse(`UNWIND range(1, 3) AS i CREATE (:A)-[:R {w: 1}]->(:B) WITH count(*) AS c CREATE (:C)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(Config{Dialect: DialectRevised}).ExecuteStatement(g, setup, nil); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`WITH 1 AS p MATCH (a:A)-[{w: p}]->(b), p = (c:C) RETURN count(*) AS n`,
		`MATCH p = (c:C) MATCH (a:A)-[{w: p}]->(b), p = (c) RETURN count(*) AS n`,
		`WITH 1 AS p MATCH p = (a:A)-[{w: p}]->(b) RETURN count(*) AS n`,
		`MATCH p = (a:A), p = (c:C) RETURN count(*) AS n`,
	}
	for _, q := range queries {
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, naive := range []bool{false, true} {
			_, err := NewEngine(Config{Dialect: DialectRevised, naivePlanner: naive}).ExecuteStatement(g.Clone(), stmt, nil)
			if err == nil || !strings.Contains(err.Error(), "variable `p` already declared") {
				t.Errorf("naive=%v %q: err = %v, want `p` already declared", naive, q, err)
			}
		}
	}
}
