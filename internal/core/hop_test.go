package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

// A hop reads its far end from the adjacency entry and tests the end's
// presence and labels on the graph's bitmaps. These tests pin that the
// bitmaps, not a stale load, decide: a node removed earlier in the same
// statement is no end, and label writes earlier in the statement are
// seen by a later hop's label test.

// graphOf returns a new graph built by one revised CREATE.
func graphOf(t *testing.T, create string) *graph.Graph {
	t.Helper()
	g := graph.New()
	run(t, DialectRevised, g, create)
	return g
}

// TestHopSkipsEndDeletedUnchecked: a Cypher 9 DELETE removes b while
// its relationship still stands (the dangling mid-statement state of
// Section 4.2), so a's adjacency entry still names b. A later hop from
// a, in each direction form, must find no end there.
func TestHopSkipsEndDeletedUnchecked(t *testing.T) {
	for _, pat := range []string{`(a)-->(c)`, `(a)--(c)`, `(c)<--(a)`, `(a)-[:T]->(c:B)`} {
		g := graphOf(t, `CREATE (a:A)-[:T]->(b:B), (a)<-[:U]-(:C)`)
		q := `MATCH (a:A)-[r:T]->(b:B) DELETE b WITH a, r OPTIONAL MATCH ` + pat +
			` WITH r, count(c) AS n, collect(labels(c)) AS ends DELETE r RETURN n, ends`
		res := run(t, DialectCypher9, g, q)
		if res.Table.Len() != 1 {
			t.Fatalf("%s: %d rows, want 1", pat, res.Table.Len())
		}
		n, want := value.Int(0), value.List{}
		if pat == `(a)--(c)` {
			n, want = value.Int(1), value.List{value.List{value.String("C")}}
		}
		if got := res.Table.Get(0, "n"); got != n {
			t.Errorf("%s: %v ends, want %v", pat, got, n)
		}
		if got := res.Table.Get(0, "ends"); value.Equal(got, want) != value.True {
			t.Errorf("%s: ends %v, want %v", pat, got, want)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
	}
}

// TestHopSeesLabelWritesInStatement: a label removed and another added
// earlier in the statement decide a later hop's end label test, in
// both dialects.
func TestHopSeesLabelWritesInStatement(t *testing.T) {
	for _, d := range []Dialect{DialectCypher9, DialectRevised} {
		g := graphOf(t, `CREATE (a:A)-[:T]->(:Old), (a)-[:T]->(:Old), (a)-[:T]->(:Keep)`)
		res := run(t, d, g, `MATCH (a:A)-[:T]->(b:Old) REMOVE b:Old SET b:New
			WITH DISTINCT a
			OPTIONAL MATCH (a)-[:T]->(x:New) WITH a, count(x) AS nNew
			OPTIONAL MATCH (a)-[:T]->(y:Old) WITH a, nNew, count(y) AS nOld
			OPTIONAL MATCH (a)-[:T]->(z:Keep) RETURN nNew, nOld, count(z) AS nKeep`)
		if res.Table.Len() != 1 {
			t.Fatalf("dialect %v: %d rows, want 1", d, res.Table.Len())
		}
		for col, want := range map[string]int64{"nNew": 2, "nOld": 0, "nKeep": 1} {
			if got := res.Table.Get(0, col); got != value.Int(want) {
				t.Errorf("dialect %v: %s = %v, want %d", d, col, got, want)
			}
		}
	}
}

// TestHopCountsUndirectedSelfLoopOnce: a self-loop has an entry in its
// node's out row and one in its in row; an undirected hop takes it
// once, and a directed hop once from either row.
func TestHopCountsUndirectedSelfLoopOnce(t *testing.T) {
	g := graphOf(t, `CREATE (a:L)-[:T]->(a), (a)-[:T]->(:M), (a)<-[:U]-(:M)`)
	for q, want := range map[string]int64{
		`MATCH (a:L)-[r]-(b) RETURN count(*) AS n`:           3,
		`MATCH (a:L)-[r:T]-(a) RETURN count(*) AS n`:         1,
		`MATCH (a:L)-[r]->(a) RETURN count(*) AS n`:          1,
		`MATCH (a:L)<-[r]-(a) RETURN count(*) AS n`:          1,
		`MATCH (a:L)-[r]-(b:L) RETURN count(*) AS n`:         1,
		`MATCH (a:L)-[r:T|U]-(b:M) RETURN count(*) AS n`:     2,
		`MATCH (x)-[r]-(y) WHERE x = y RETURN count(*) AS n`: 1,
	} {
		res := run(t, DialectRevised, g, q)
		if got := res.Table.Get(0, "n"); got != value.Int(want) {
			t.Errorf("%s: %v, want %d", q, got, want)
		}
	}
}
