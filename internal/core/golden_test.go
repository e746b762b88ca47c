package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/value"
)

// goldenCase is one query with its expected rendered output rows
// (pipe-separated, in order). Rendering uses Value.String, so entity
// references are excluded from this corpus; shape-level behaviour of
// entities is covered elsewhere.
//
// stats and graph pin the rest of the answer for the whole case, setup
// statements and query together: the summed update stats, and the
// fingerprintHash of the final graph. The pins are the answers of the
// clause-at-a-time materializing interpreter that specified the engine
// before the property oracles did.
type goldenCase struct {
	name  string
	setup []string // statements run first, in the corpus's dialect
	query string
	want  []string // rendered rows; nil means "no rows"
	cols  string   // expected column header, pipe-separated (optional)
	stats UpdateStats
	graph string
}

// emptyGraph is the fingerprintHash of the empty graph.
const emptyGraph = "1f18d650d205"

// checkGolden runs a case's setup statements and query on a fresh graph
// under cfg and checks every pin: rows, columns, summed stats and the
// final graph. arm names cfg in failure messages.
func checkGolden(t *testing.T, c goldenCase, arm string, cfg Config) {
	t.Helper()
	g := graph.New()
	eng := NewEngine(cfg)
	var total UpdateStats
	var res *Result
	for _, s := range append(append([]string(nil), c.setup...), c.query) {
		stmt, err := parser.Parse(s)
		if err != nil {
			t.Fatalf("%s: parse %q: %v", arm, s, err)
		}
		if res, err = eng.ExecuteStatement(g, stmt, nil); err != nil {
			t.Fatalf("%s: exec %q: %v", arm, s, err)
		}
		total.Add(res.Stats)
	}
	if c.cols != "" {
		if got := strings.Join(res.Table.Columns(), " | "); got != c.cols {
			t.Errorf("%s: columns = %q, want %q", arm, got, c.cols)
		}
	}
	var got []string
	for i := 0; i < res.Table.Len(); i++ {
		var parts []string
		for _, v := range res.Table.Values(i) {
			parts = append(parts, renderValue(v))
		}
		got = append(got, strings.Join(parts, " | "))
	}
	if len(got) != len(c.want) || strings.Join(got, "\n") != strings.Join(c.want, "\n") {
		t.Errorf("%s: rows = %q, want %q", arm, got, c.want)
	}
	if total != c.stats {
		t.Errorf("%s: stats = %v, want %v", arm, total, c.stats)
	}
	if h := fingerprintHash(g); h != c.graph {
		t.Errorf("%s: final graph hash = %s, want %s", arm, h, c.graph)
	}
}

var goldenCorpus = []goldenCase{
	// --- scalar expressions and projections ---
	{name: "arith precedence", query: `RETURN 1 + 2 * 3 AS x`, want: []string{"7"}, graph: emptyGraph},
	{name: "string concat", query: `RETURN 'a' + 'b' + 'c' AS s`, want: []string{"'abc'"}, graph: emptyGraph},
	{name: "alias defaults to expr text", query: `RETURN 1 + 1`, cols: "(1 + 1)", want: []string{"2"}, graph: emptyGraph},
	{name: "boolean ternary", query: `RETURN null AND false AS x, null OR true AS y`, want: []string{"false | true"}, graph: emptyGraph},
	{name: "case simple", query: `RETURN CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END AS x`, want: []string{"'b'"}, graph: emptyGraph},
	{name: "case searched else", query: `RETURN CASE WHEN false THEN 1 ELSE 2 END AS x`, want: []string{"2"}, graph: emptyGraph},
	{name: "list literal and index", query: `RETURN [10,20,30][1] AS x, [10,20,30][-1] AS y`, want: []string{"20 | 30"}, graph: emptyGraph},
	{name: "list slice", query: `RETURN [1,2,3,4][1..3] AS x`, want: []string{"[2, 3]"}, graph: emptyGraph},
	{name: "map literal access", query: `RETURN {a: 1, b: 'x'}.b AS v`, want: []string{"'x'"}, graph: emptyGraph},
	{name: "comprehension", query: `RETURN [x IN range(1,5) WHERE x % 2 = 1 | x * x] AS sq`, want: []string{"[1, 9, 25]"}, graph: emptyGraph},
	{name: "reduce", query: `RETURN reduce(s = 0, x IN [1,2,3,4] | s + x) AS sum`, want: []string{"10"}, graph: emptyGraph},
	{name: "quantifiers", query: `RETURN all(x IN [1,2] WHERE x > 0) AS a, none(x IN [1,2] WHERE x > 5) AS n`, want: []string{"true | true"}, graph: emptyGraph},
	{name: "coalesce chain", query: `RETURN coalesce(null, null, 3) AS x`, want: []string{"3"}, graph: emptyGraph},
	{name: "in with null", query: `RETURN 3 IN [1, null] AS x`, want: []string{"null"}, graph: emptyGraph},
	{name: "is null", query: `RETURN null IS NULL AS a, 1 IS NOT NULL AS b`, want: []string{"true | true"}, graph: emptyGraph},
	{name: "string predicates", query: `RETURN 'graph' STARTS WITH 'gr' AS a, 'graph' CONTAINS 'ap' AS b`, want: []string{"true | true"}, graph: emptyGraph},

	// --- UNWIND / WITH pipelines ---
	{name: "unwind", query: `UNWIND [3,1,2] AS x RETURN x ORDER BY x`, want: []string{"1", "2", "3"}, graph: emptyGraph},
	{name: "unwind nested lists", query: `UNWIND [[1,2],[3]] AS xs UNWIND xs AS x RETURN x`, want: []string{"1", "2", "3"}, graph: emptyGraph},
	{name: "with filtering", query: `UNWIND range(1,10) AS x WITH x WHERE x > 8 RETURN x`, want: []string{"9", "10"}, graph: emptyGraph},
	{name: "with rename", query: `WITH 5 AS five RETURN five * 2 AS ten`, want: []string{"10"}, graph: emptyGraph},
	{name: "order desc skip limit", query: `UNWIND [1,2,3,4,5] AS x RETURN x ORDER BY x DESC SKIP 1 LIMIT 2`, want: []string{"4", "3"}, graph: emptyGraph},
	{name: "distinct", query: `UNWIND [1,1,2,1.0] AS x RETURN DISTINCT x`, want: []string{"1", "2"}, graph: emptyGraph},
	{name: "order by null last", query: `UNWIND [null, 2, 1] AS x RETURN x ORDER BY x`, want: []string{"1", "2", "null"}, graph: emptyGraph},

	// --- aggregation ---
	{name: "count sum avg", query: `UNWIND [1,2,3] AS x RETURN count(*) AS c, sum(x) AS s, avg(x) AS a`, want: []string{"3 | 6 | 2.0"}, graph: emptyGraph},
	{name: "min max collect", query: `UNWIND [3,1,2] AS x RETURN min(x) AS mn, max(x) AS mx, collect(x) AS all`, want: []string{"1 | 3 | [3, 1, 2]"}, graph: emptyGraph},
	{name: "count null skips", query: `UNWIND [1, null, 2] AS x RETURN count(x) AS c, count(*) AS star`, want: []string{"2 | 3"}, graph: emptyGraph},
	{name: "group by key", query: `UNWIND [1,1,2,2,2] AS x RETURN x, count(*) AS c ORDER BY x`, want: []string{"1 | 2", "2 | 3"}, graph: emptyGraph},
	{name: "distinct aggregate", query: `UNWIND [1,1,2] AS x RETURN count(DISTINCT x) AS c`, want: []string{"2"}, graph: emptyGraph},
	{name: "collect empty", query: `MATCH (n:Nope) RETURN collect(n.x) AS xs`, want: []string{"[]"}, graph: emptyGraph},

	// --- graph reads ---
	{
		name:  "labels and props",
		setup: []string{`CREATE (:Person{name:'Ada', age:36}), (:Person{name:'Bob'})`},
		query: `MATCH (p:Person) RETURN p.name AS name, p.age AS age ORDER BY name`,
		want:  []string{"'Ada' | 36", "'Bob' | null"},
		stats: UpdateStats{NodesCreated: 2},
		graph: "2ec346a124ca",
	},
	{
		name:  "relationship traversal",
		setup: []string{`CREATE (:A{v:1})-[:T{w:9}]->(:B{v:2})`},
		query: `MATCH (a:A)-[r:T]->(b:B) RETURN a.v AS av, r.w AS w, b.v AS bv`,
		want:  []string{"1 | 9 | 2"},
		stats: UpdateStats{NodesCreated: 2, RelsCreated: 1},
		graph: "4f0e847b506f",
	},
	{
		name:  "undirected traversal both rows",
		setup: []string{`CREATE (:A{v:1})-[:T]->(:A{v:2})`},
		query: `MATCH (x:A)-[:T]-(y:A) RETURN x.v AS xv ORDER BY xv`,
		want:  []string{"1", "2"},
		stats: UpdateStats{NodesCreated: 2, RelsCreated: 1},
		graph: "89681990b2d3",
	},
	{
		name:  "var length path",
		setup: []string{`CREATE (:P{i:1})-[:N]->(:P{i:2})-[:N]->(:P{i:3})`},
		query: `MATCH (a:P{i:1})-[:N*1..2]->(b) RETURN b.i AS i ORDER BY i`,
		want:  []string{"2", "3"},
		stats: UpdateStats{NodesCreated: 3, RelsCreated: 2},
		graph: "4fe770de5e37",
	},
	{
		name:  "optional match null",
		setup: []string{`CREATE (:X{v:1})`},
		query: `MATCH (x:X) OPTIONAL MATCH (x)-[:MISSING]->(m) RETURN x.v AS v, m`,
		want:  []string{"1 | null"},
		stats: UpdateStats{NodesCreated: 1},
		graph: "f88aa7c79d9d",
	},
	{
		name:  "path functions",
		setup: []string{`CREATE (:A{v:1})-[:T]->(:B{v:2})`},
		query: `MATCH pth = (:A)-[:T]->(:B) RETURN length(pth) AS len, size(nodes(pth)) AS n`,
		want:  []string{"1 | 2"},
		stats: UpdateStats{NodesCreated: 2, RelsCreated: 1},
		graph: "7a1e41727b0e",
	},
	{
		name:  "labels function",
		setup: []string{`CREATE (:A:B{v:1})`},
		query: `MATCH (n{v:1}) RETURN labels(n) AS ls`,
		want:  []string{"['A', 'B']"},
		stats: UpdateStats{NodesCreated: 1},
		graph: "fc0fe30a88dd",
	},
	{
		name:  "exists and keys",
		setup: []string{`CREATE (:K{a:1})`},
		query: `MATCH (n:K) RETURN exists(n.a) AS ea, exists(n.b) AS eb, keys(n) AS ks`,
		want:  []string{"true | false | ['a']"},
		stats: UpdateStats{NodesCreated: 1},
		graph: "0bbc3e719a27",
	},

	// --- updates observed through reads (revised dialect) ---
	{
		name:  "create then read",
		setup: []string{`CREATE (:C{v:1})`, `MATCH (c:C) SET c.v = c.v + 1`},
		query: `MATCH (c:C) RETURN c.v AS v`,
		want:  []string{"2"},
		stats: UpdateStats{NodesCreated: 1, PropsSet: 1},
		graph: "b50d587eba5d",
	},
	{
		name: "merge same binds",
		setup: []string{
			`UNWIND [1,1,2] AS k MERGE SAME (:U{id:k})`,
		},
		query: `MATCH (u:U) RETURN count(*) AS c`,
		want:  []string{"2"},
		stats: UpdateStats{NodesCreated: 2},
		graph: "d92673281e46",
	},
	{
		name:  "remove label",
		setup: []string{`CREATE (:Old:New{v:1})`, `MATCH (n:Old) REMOVE n:Old`},
		query: `MATCH (n:New) RETURN size(labels(n)) AS c`,
		want:  []string{"1"},
		stats: UpdateStats{NodesCreated: 1, LabelsRemoved: 1},
		graph: "82bc2ee5531b",
	},
	{
		name:  "delete then count",
		setup: []string{`CREATE (:D{v:1}), (:D{v:2})`, `MATCH (d:D{v:1}) DELETE d`},
		query: `MATCH (d:D) RETURN count(*) AS c`,
		want:  []string{"1"},
		stats: UpdateStats{NodesCreated: 2, NodesDeleted: 1},
		graph: "91a4d1b5cc03",
	},
	{
		name:  "foreach effect",
		setup: []string{`FOREACH (i IN range(1,3) | CREATE (:F{i:i}))`},
		query: `MATCH (f:F) RETURN sum(f.i) AS s`,
		want:  []string{"6"},
		stats: UpdateStats{NodesCreated: 3},
		graph: "4de5e9311a7d",
	},

	// --- union ---
	{
		name:  "union dedup",
		query: `RETURN 1 AS x UNION RETURN 1 AS x UNION RETURN 2 AS x`,
		want:  []string{"1", "2"},
		graph: emptyGraph,
	},
	{
		name:  "union all keeps",
		query: `RETURN 1 AS x UNION ALL RETURN 1 AS x`,
		want:  []string{"1", "1"},
		graph: emptyGraph,
	},

	// --- functions breadth ---
	{name: "string funcs", query: `RETURN toUpper('ab') + toLower('CD') AS s, substring('hello', 1, 3) AS sub`, want: []string{"'ABcd' | 'ell'"}, graph: emptyGraph},
	{name: "split join shape", query: `RETURN size(split('a,b,c', ',')) AS n`, want: []string{"3"}, graph: emptyGraph},
	{name: "numeric funcs", query: `RETURN abs(-2) AS a, sign(-9) AS s, round(2.5) AS r`, want: []string{"2 | -1 | 3.0"}, graph: emptyGraph},
	{name: "conversions", query: `RETURN toInteger('42') AS i, toFloat('1.5') AS f, toString(7) AS s`, want: []string{"42 | 1.5 | '7'"}, graph: emptyGraph},
	{name: "head last tail", query: `RETURN head([1,2,3]) AS h, last([1,2,3]) AS l, tail([1,2,3]) AS t`, want: []string{"1 | 3 | [2, 3]"}, graph: emptyGraph},
	{name: "reverse range", query: `RETURN reverse(range(1,3)) AS r`, want: []string{"[3, 2, 1]"}, graph: emptyGraph},
	{name: "chained comparison", query: `RETURN 1 < 2 < 3 AS t, 1 < 2 > 5 AS f`, want: []string{"true | false"}, graph: emptyGraph},
	{name: "modulo and power", query: `RETURN 7 % 3 AS m, 2 ^ 3 AS p`, want: []string{"1 | 8.0"}, graph: emptyGraph},
}

func TestGoldenCorpus(t *testing.T) {
	for _, c := range goldenCorpus {
		t.Run(c.name, func(t *testing.T) {
			checkGolden(t, c, "default", Config{Dialect: DialectRevised})
		})
	}
}

func renderValue(v value.Value) string {
	if v == nil {
		return "null"
	}
	return v.String()
}
