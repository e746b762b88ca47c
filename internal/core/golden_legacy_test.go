package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

// The legacy golden corpus pins the *Cypher 9* pipeline behaviours that
// differ from (or are absent in) the revised dialect: per-record
// visibility of writes, bare MERGE, ON CREATE/ON MATCH, and the
// WITH-demarcation rule. Each case lists setup statements and a final
// query with expected rendered rows.
var legacyGoldenCorpus = []goldenCase{
	{
		name: "set sees earlier items (Example 1 degeneration)",
		setup: []string{
			`CREATE (:P{name:'a', v:1}), (:P{name:'b', v:2})`,
			`MATCH (x:P{name:'a'}), (y:P{name:'b'}) SET x.v = y.v, y.v = x.v`,
		},
		query: `MATCH (p:P) RETURN p.name AS n, p.v AS v ORDER BY n`,
		want:  []string{"'a' | 2", "'b' | 2"},
		stats: UpdateStats{NodesCreated: 2, PropsSet: 2},
		graph: "9d0533b48711",
	},
	{
		name: "set item chain accumulates within one record",
		setup: []string{
			`CREATE (:Q{v:1})`,
			`MATCH (q:Q) SET q.v = q.v + 1, q.v = q.v * 10`,
		},
		// Legacy: ((1+1) * 10) = 20; revised would read v=1 twice and
		// conflict (2 vs 10).
		query: `MATCH (q:Q) RETURN q.v AS v`,
		want:  []string{"20"},
		stats: UpdateStats{NodesCreated: 1, PropsSet: 2},
		graph: "15d8c226c1a7",
	},
	{
		name: "bare merge creates once",
		setup: []string{
			`MERGE (c:City{name:'Oslo'})`,
			`MERGE (c:City{name:'Oslo'})`,
		},
		query: `MATCH (c:City) RETURN count(*) AS c`,
		want:  []string{"1"},
		stats: UpdateStats{NodesCreated: 1},
		graph: "2786dd0124c4",
	},
	{
		name: "on create / on match counters",
		setup: []string{
			`MERGE (c:Cnt{id:1}) ON CREATE SET c.n = 1 ON MATCH SET c.n = c.n + 1`,
			`MERGE (c:Cnt{id:1}) ON CREATE SET c.n = 1 ON MATCH SET c.n = c.n + 1`,
			`MERGE (c:Cnt{id:1}) ON CREATE SET c.n = 1 ON MATCH SET c.n = c.n + 1`,
		},
		query: `MATCH (c:Cnt) RETURN c.n AS n`,
		want:  []string{"3"},
		stats: UpdateStats{NodesCreated: 1, PropsSet: 3},
		graph: "44b95d6b66c3",
	},
	{
		name: "merge reads its own writes within one statement",
		setup: []string{
			`CREATE (:Src{id:1}), (:Src{id:2})`,
			// Both records merge the same (by-value) target pattern; the
			// second record finds the first's creation.
			`MATCH (s:Src) MERGE (t:Tgt{key:'shared'})`,
		},
		query: `MATCH (t:Tgt) RETURN count(*) AS c`,
		want:  []string{"1"},
		stats: UpdateStats{NodesCreated: 3},
		graph: "77d77f1d8150",
	},
	{
		name: "with demarcation makes updates visible",
		setup: []string{
			`CREATE (:W{v:1}) WITH 1 AS one MATCH (w:W) SET w.seen = true`,
		},
		query: `MATCH (w:W{seen:true}) RETURN count(*) AS c`,
		want:  []string{"1"},
		stats: UpdateStats{NodesCreated: 1, PropsSet: 1},
		graph: "62f113d70937",
	},
	{
		name: "undirected merge matches both directions",
		setup: []string{
			`CREATE (:L{id:1})`,
			`CREATE (:R{id:2})`,
			`MATCH (l:L), (r:R) CREATE (r)-[:T]->(l)`,
			// The undirected pattern is satisfied by the r->l rel.
			`MATCH (l:L), (r:R) MERGE (l)-[:T]-(r)`,
		},
		query: `MATCH ()-[t:T]-() RETURN count(DISTINCT t) AS c`,
		want:  []string{"1"},
		stats: UpdateStats{NodesCreated: 2, RelsCreated: 1},
		graph: "85063d845b2c",
	},
	{
		name: "foreach applies per element in order",
		setup: []string{
			`CREATE (:Acc{total:0})`,
			`MATCH (a:Acc) FOREACH (x IN [1,2,3] | SET a.total = a.total + x)`,
		},
		query: `MATCH (a:Acc) RETURN a.total AS t`,
		want:  []string{"6"},
		stats: UpdateStats{NodesCreated: 1, PropsSet: 3},
		graph: "9a5f7ba28405",
	},
}

func TestLegacyGoldenCorpus(t *testing.T) {
	for _, c := range legacyGoldenCorpus {
		t.Run(c.name, func(t *testing.T) {
			checkGolden(t, c, "default", Config{Dialect: DialectCypher9})
		})
	}
}

// The second corpus case must genuinely diverge from the revised
// dialect: there the same SET is a conflict error.
func TestLegacySetChainConflictsInRevised(t *testing.T) {
	g := graph.New()
	run(t, DialectRevised, g, `CREATE (:Q{v:1})`)
	_, err := runErr(DialectRevised, g, `MATCH (q:Q) SET q.v = q.v + 1, q.v = q.v * 10`)
	if err == nil {
		t.Fatal("revised SET with overlapping writes should conflict (2 vs 10)")
	}
	if !strings.Contains(err.Error(), "conflicting SET") {
		t.Errorf("error = %v", err)
	}
}
