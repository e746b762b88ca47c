package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/value"
)

// renderTable flattens a result table to "col | col" header plus one
// rendered line per row, for exact cross-executor comparison.
func renderTable(t *Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Table.Columns(), " | "))
	for i := 0; i < t.Table.Len(); i++ {
		var parts []string
		for _, v := range t.Table.Values(i) {
			parts = append(parts, renderValue(v))
		}
		sb.WriteString("\n" + strings.Join(parts, " | "))
	}
	return sb.String()
}

// TestStreamingMatchesMaterializingGolden replays every case of both
// golden corpora serially; each must reproduce every pin of the case
// (rows, stats, final graph) in both dialects.
func TestStreamingMatchesMaterializingGolden(t *testing.T) {
	suites := []struct {
		name    string
		dialect Dialect
		cases   []goldenCase
	}{
		{"revised", DialectRevised, goldenCorpus},
		{"legacy", DialectCypher9, legacyGoldenCorpus},
	}
	for _, suite := range suites {
		for _, c := range suite.cases {
			t.Run(suite.name+"/"+c.name, func(t *testing.T) {
				checkGolden(t, c, "serial", Config{Dialect: suite.dialect, Parallelism: 1})
			})
		}
	}
}

// TestStreamingMatchesMaterializingScanOrders replays an order-sensitive
// legacy MERGE (the Example 3 nondeterminism) under both scan orders:
// the barrier must feed update clauses the records in the configured
// order, and the answers are pinned per order.
func TestStreamingMatchesMaterializingScanOrders(t *testing.T) {
	setup := `CREATE (:U{n:'u1'}), (:U{n:'u2'}), (:P{n:'p'})`
	query := `
		UNWIND ['u1','u2','u1'] AS un
		MATCH (u:U{n:un}), (p:P)
		WITH u, p
		MERGE (u)-[:ORDERED]->(p)
		RETURN count(*) AS c`
	pins := map[ScanOrder]struct {
		table string
		stats UpdateStats
		graph string
	}{
		ScanForward: {"c\n3", UpdateStats{NodesCreated: 3, RelsCreated: 2}, "1b757db71dbe"},
		ScanReverse: {"c\n3", UpdateStats{NodesCreated: 3, RelsCreated: 2}, "1b757db71dbe"},
	}
	for _, order := range []ScanOrder{ScanForward, ScanReverse} {
		t.Run(order.String(), func(t *testing.T) {
			g := graph.New()
			eng := NewEngine(Config{Dialect: DialectCypher9, ScanOrder: order})
			var total UpdateStats
			var res *Result
			for _, s := range []string{setup, query} {
				var err error
				if res, err = eng.ExecuteStatement(g, mustParse(t, s), nil); err != nil {
					t.Fatal(err)
				}
				total.Add(res.Stats)
			}
			pin := pins[order]
			if got := renderTable(res); got != pin.table {
				t.Errorf("table %q, want %q", got, pin.table)
			}
			if total != pin.stats {
				t.Errorf("stats %v, want %v", total, pin.stats)
			}
			if h := fingerprintHash(g); h != pin.graph {
				t.Errorf("final graph hash %s, want %s", h, pin.graph)
			}
		})
	}
}

func (s ScanOrder) String() string {
	if s == ScanReverse {
		return "reverse"
	}
	return "forward"
}

// findMatchOps walks a plan collecting its Match operators.
func findMatchOps(root plan.Operator) []*plan.Match {
	var out []*plan.Match
	var rec func(op plan.Operator)
	rec = func(op plan.Operator) {
		if m, ok := op.(*plan.Match); ok {
			out = append(out, m)
		}
		for _, c := range op.Children() {
			rec(c)
		}
	}
	rec(root)
	return out
}

// TestLimitEarlyExitStopsEnumeration is the streaming-semantics
// acceptance test: MATCH … RETURN … LIMIT k must stop pattern
// enumeration after k rows instead of visiting all n nodes.
func TestLimitEarlyExitStopsEnumeration(t *testing.T) {
	const n = 5000
	g := graph.New()
	for i := 0; i < n; i++ {
		g.CreateNode([]string{"N"}, value.Map{"i": value.Int(int64(i))})
	}

	var root plan.Operator
	// Parallelism pinned to 1: the test asserts per-operator visit
	// counters on the serial Match, which an Exchange would replace
	// with a never-opened prototype.
	cfg := Config{Dialect: DialectRevised, Parallelism: 1}
	cfg.onPlan = func(op plan.Operator) { root = op }
	eng := NewEngine(cfg)
	stmt, err := parser.Parse(`MATCH (m:N) RETURN m.i AS i LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ExecuteStatement(g, stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 3 {
		t.Fatalf("rows = %d, want 3", res.Table.Len())
	}
	if root == nil {
		t.Fatal("onPlan hook not invoked")
	}
	matches := findMatchOps(root)
	if len(matches) != 1 {
		t.Fatalf("match operators = %d, want 1", len(matches))
	}
	st := matches[0].MatchStats()
	if st.Emitted != 3 {
		t.Errorf("match emitted %d environments, want exactly 3", st.Emitted)
	}
	// The scan must have visited only the candidates needed for 3 rows,
	// not the full node set.
	if st.NodeVisits >= n/10 {
		t.Errorf("match visited %d of %d nodes; early exit did not prune", st.NodeVisits, n)
	}
	if got := matches[0].RowsEmitted(); got != 3 {
		t.Errorf("match operator emitted %d rows, want 3", got)
	}
}

// TestLimitEarlyExitExpand covers the relationship-expansion side: a
// two-hop pattern under LIMIT must not enumerate the whole adjacency
// structure.
func TestLimitEarlyExitExpand(t *testing.T) {
	const hubs = 50
	g := graph.New()
	for h := 0; h < hubs; h++ {
		hub := g.CreateNode([]string{"Hub"}, value.Map{"h": value.Int(int64(h))})
		for i := 0; i < 40; i++ {
			spoke := g.CreateNode([]string{"Spoke"}, nil)
			if _, err := g.CreateRel(hub.ID, spoke.ID, "T", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	var root plan.Operator
	// Parallelism: 1 — same visit-counter pinning as above.
	cfg := Config{Dialect: DialectRevised, Parallelism: 1}
	cfg.onPlan = func(op plan.Operator) { root = op }
	stmt, err := parser.Parse(`MATCH (h:Hub)-[:T]->(s:Spoke) RETURN h.h AS h LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(cfg).ExecuteStatement(g, stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Table.Len())
	}
	st := findMatchOps(root)[0].MatchStats()
	if st.RelVisits >= 100 {
		t.Errorf("expand visited %d relationships for LIMIT 2; early exit did not prune", st.RelVisits)
	}
}

// TestExplainStatement exercises the plan rendering used by the shell's
// EXPLAIN command.
func TestExplainStatement(t *testing.T) {
	eng := NewEngine(Config{Dialect: DialectRevised})
	g := graph.New()
	stmt, err := parser.Parse(`MATCH (a:User)-[:KNOWS]->(b) WHERE a.age > 30 CREATE (b)-[:SEEN]->(:Event) RETURN b.name AS name ORDER BY name LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.ExplainStatement(g, stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Limit(5)", "Sort[barrier]", "Project[name]",
		"Update[barrier:writer-lock](CREATE)", "txn: auto-commit write", "Match(", "WHERE …", "Unit",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	// The plan must be a single chain: each line below the first is
	// indented under its parent.
	lines := strings.Split(out, "\n")
	if len(lines) < 6 {
		t.Errorf("explain output too shallow:\n%s", out)
	}
}

// TestExplainUnion checks member sequencing and statement-level
// deduplication in the rendered plan.
func TestExplainUnion(t *testing.T) {
	eng := NewEngine(Config{Dialect: DialectRevised})
	stmt, err := parser.Parse(`RETURN 1 AS x UNION RETURN 2 AS x`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.ExplainStatement(graph.New(), stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Union(2 members)") || !strings.Contains(out, "Distinct") {
		t.Errorf("union plan missing Union/Distinct:\n%s", out)
	}
}

// TestStreamingStatementErrorsRollBack ensures a mid-stream error in the
// new executor still restores the pre-statement graph.
func TestStreamingStatementErrorsRollBack(t *testing.T) {
	g := graph.New()
	eng := NewEngine(Config{Dialect: DialectRevised})
	mustExec := func(q string) {
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ExecuteStatement(g, stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(`CREATE (:A{v:1}), (:A{v:2})`)
	before := graph.Fingerprint(g)
	stmt, err := parser.Parse(`MATCH (a:A) CREATE (:B{v:a.v}) WITH a RETURN a.v + 'boom' AS x`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExecuteStatement(g, stmt, nil); err == nil {
		t.Fatal("expected type error")
	}
	if graph.Fingerprint(g) != before {
		t.Error("failed streaming statement must roll back its writes")
	}
}

// TestLimitNeverStopsUpdates: LIMIT bounds the rows a statement returns,
// never its effects. A LIMIT 0 after an update clause still applies the
// clause in full, and a bad SKIP count reports the update's own error
// first, as composing the clauses one at a time would (Section 8.2).
func TestLimitNeverStopsUpdates(t *testing.T) {
	g := graph.New()
	run(t, DialectRevised, g, `UNWIND range(1, 3) AS i CREATE (:N{i: i})`)
	res := run(t, DialectRevised, g, `MATCH (n:N) SET n.seen = true RETURN n.i AS i LIMIT 0`)
	if res.Table.Len() != 0 || res.Stats.PropsSet != 3 {
		t.Errorf("LIMIT 0 after SET: %d rows, %d props set; want 0 rows, 3 props", res.Table.Len(), res.Stats.PropsSet)
	}
	_, err := runErr(DialectRevised, g, `MATCH (a:N), (b:N) SET a.x = b.i RETURN a.i AS i SKIP -1`)
	if err == nil || !strings.Contains(err.Error(), "conflicting SET") {
		t.Errorf("SKIP -1 after a conflicting SET: err = %v, want the conflict", err)
	}
}

// TestStreamingPropertyRandomQueries replays a mix of read pipelines
// on a random-ish graph serially and at parallelism 2; both must
// reproduce each query's pinned table (rows joined by " / "), the
// materializing interpreter's answer, and leave the graph unchanged.
func TestStreamingPropertyRandomQueries(t *testing.T) {
	g := graph.New()
	eng := NewEngine(Config{Dialect: DialectRevised})
	for _, s := range []string{
		`UNWIND range(0, 40) AS i CREATE (:P{i:i, g:i % 5})`,
		`MATCH (a:P), (b:P) WHERE a.g = b.g AND a.i < b.i CREATE (a)-[:SAME]->(b)`,
	} {
		if _, err := eng.ExecuteStatement(g, mustParse(t, s), nil); err != nil {
			t.Fatal(err)
		}
	}
	const base = "af09cf72b8eb"
	if h := fingerprintHash(g); h != base {
		t.Fatalf("setup graph hash %s, want %s", h, base)
	}

	queries := []struct{ q, want string }{
		{`MATCH (a:P) RETURN a.i AS i ORDER BY i DESC SKIP 3 LIMIT 7`,
			"i / 37 / 36 / 35 / 34 / 33 / 32 / 31"},
		{`MATCH (a:P)-[:SAME]->(b:P) RETURN a.g AS g, count(*) AS c ORDER BY g`,
			"g | c / 0 | 36 / 1 | 28 / 2 | 28 / 3 | 28 / 4 | 28"},
		{`MATCH (a:P) WHERE a.i % 3 = 0 WITH a.g AS g, collect(a.i) AS xs RETURN g, size(xs) AS n ORDER BY g`,
			"g | n / 0 | 3 / 1 | 3 / 2 | 2 / 3 | 3 / 4 | 3"},
		{`MATCH (a:P)-[:SAME]->(b) WITH DISTINCT a.g AS g ORDER BY g RETURN g`,
			"g / 0 / 1 / 2 / 3 / 4"},
		{`MATCH (a:P) OPTIONAL MATCH (a)-[:SAME]->(b:P{i:999}) RETURN a.i AS i, b ORDER BY i LIMIT 5`,
			"i | b / 0 | null / 1 | null / 2 | null / 3 | null / 4 | null"},
		{`UNWIND range(1,5) AS x MATCH (a:P{i:x}) RETURN x, a.g AS g`,
			"x | g / 1 | 1 / 2 | 2 / 3 | 3 / 4 | 4 / 5 | 0"},
		{`MATCH (a:P{g:0}) RETURN a.i AS i UNION MATCH (a:P{g:1}) RETURN a.i AS i`,
			"i / 0 / 5 / 10 / 15 / 20 / 25 / 30 / 35 / 40 / 1 / 6 / 11 / 16 / 21 / 26 / 31 / 36"},
		{`MATCH (a:P{g:0}) RETURN a.g AS g UNION MATCH (b:P{g:0}) RETURN b.g AS g`,
			"g / 0"},
	}
	for qi, c := range queries {
		stmt := mustParse(t, c.q)
		for _, par := range []int{1, 2} {
			gq := g.Clone()
			res, err := NewEngine(Config{Dialect: DialectRevised, Parallelism: par}).ExecuteStatement(gq, stmt, nil)
			if err != nil {
				t.Fatalf("q%d par%d: %v", qi, par, err)
			}
			if got := strings.ReplaceAll(renderTable(res), "\n", " / "); got != c.want {
				t.Errorf("q%d (%s) par%d:\n got %s\nwant %s", qi, c.q, par, got, c.want)
			}
			if res.Stats != (UpdateStats{}) || fingerprintHash(gq) != base {
				t.Errorf("q%d par%d: a read changed the graph (%v)", qi, par, res.Stats)
			}
		}
	}
}
