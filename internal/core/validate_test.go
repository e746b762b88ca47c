package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/parser"
)

// validateStr parses and validates a statement under a dialect.
func validateStr(t *testing.T, src string, d Dialect) error {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return Validate(stmt, d)
}

// The grammar acceptance matrix of Section 4.4 / Figure 10 (experiment
// E10): each statement is checked against both dialects.
func TestGrammarAcceptanceMatrix(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		cypher9 bool
		revised bool
	}{
		{
			name:    "reading after update without WITH",
			src:     `CREATE (:A) MATCH (n) RETURN n`,
			cypher9: false, // Figure 2 requires WITH
			revised: true,  // Figure 10 interleaves freely
		},
		{
			name:    "reading after update with WITH",
			src:     `CREATE (a:A) WITH a MATCH (n) RETURN n`,
			cypher9: true,
			revised: true,
		},
		{
			name:    "update after reading",
			src:     `MATCH (n) SET n.x = 1`,
			cypher9: true,
			revised: true,
		},
		{
			name:    "RETURN directly after update",
			src:     `CREATE (a:A) RETURN a`,
			cypher9: true, // accepted by Neo4j and by the paper's own Query (5)
			revised: true,
		},
		{
			name:    "bare MERGE",
			src:     `MERGE (a:A{id:1})`,
			cypher9: true,
			revised: false, // "will no longer be allowed" (Section 7)
		},
		{
			name:    "MERGE ALL",
			src:     `MERGE ALL (a:A{id:1})-[:T]->(b:B)`,
			cypher9: false, // not part of Cypher 9
			revised: true,
		},
		{
			name:    "MERGE SAME",
			src:     `MERGE SAME (a:A{id:1})-[:T]->(b:B)`,
			cypher9: false,
			revised: true,
		},
		{
			name:    "MERGE ALL with pattern tuple",
			src:     `MERGE ALL (a:A)-[:T]->(b:B), (c:C)-[:U]->(d:D)`,
			cypher9: false,
			revised: true, // Figure 10 allows tuples
		},
		{
			name:    "legacy MERGE with pattern tuple",
			src:     `MERGE (a:A)-[:T]->(b:B), (c:C)`,
			cypher9: false, // Figure 3: single pattern only
			revised: false,
		},
		{
			name:    "legacy MERGE with undirected relationship",
			src:     `MERGE (a:A)-[:T]-(b:B)`,
			cypher9: true,  // Figure 5 <rel. upd. pat.> allows it
			revised: false, // Figure 10 requires directed patterns
		},
		{
			name:    "MERGE ALL with undirected relationship",
			src:     `MERGE ALL (a:A)-[:T]-(b:B)`,
			cypher9: false,
			revised: false,
		},
		{
			name:    "CREATE with undirected relationship",
			src:     `CREATE (a)-[:T]-(b)`,
			cypher9: false, // Figure 5 <dir. upd. pat.> requires direction
			revised: false,
		},
		{
			name:    "CREATE without relationship type",
			src:     `CREATE (a)-[r]->(b)`,
			cypher9: false,
			revised: false,
		},
		{
			name:    "CREATE with variable length",
			src:     `CREATE (a)-[:T*2]->(b)`,
			cypher9: false,
			revised: false,
		},
		{
			name:    "MERGE SAME with ON CREATE",
			src:     `MERGE SAME (a:A) ON CREATE SET a.x = 1`,
			cypher9: false,
			revised: false, // ON CREATE/ON MATCH dropped with the form
		},
		{
			name:    "legacy MERGE with ON CREATE/ON MATCH",
			src:     `MERGE (a:A{id:1}) ON CREATE SET a.x = 1 ON MATCH SET a.y = 2`,
			cypher9: true,
			revised: false,
		},
		{
			name:    "FOREACH with valid body",
			src:     `FOREACH (x IN [1] | CREATE (:N)-[:T]->(:M))`,
			cypher9: true,
			revised: true,
		},
		{
			name:    "FOREACH with undirected CREATE in body",
			src:     `FOREACH (x IN [1] | CREATE (:N)-[:T]-(:M))`,
			cypher9: false,
			revised: false,
		},
		{
			name:    "update clauses then WITH then reading",
			src:     `MATCH (n) SET n.x = 1 WITH n MATCH (m) RETURN m`,
			cypher9: true,
			revised: true,
		},
		{
			name:    "two reading clauses",
			src:     `MATCH (n) MATCH (m) RETURN n, m`,
			cypher9: true,
			revised: true,
		},
		{
			name:    "UNWIND after DELETE",
			src:     `MATCH (n) DETACH DELETE n UNWIND [1] AS x RETURN x`,
			cypher9: false,
			revised: true,
		},
	}
	for _, c := range cases {
		err9 := validateStr(t, c.src, DialectCypher9)
		if (err9 == nil) != c.cypher9 {
			t.Errorf("%s: cypher9 validation = %v, want accept=%v", c.name, err9, c.cypher9)
		}
		errR := validateStr(t, c.src, DialectRevised)
		if (errR == nil) != c.revised {
			t.Errorf("%s: revised validation = %v, want accept=%v", c.name, errR, c.revised)
		}
	}
}

// Executing a statement that the dialect rejects must fail without
// touching the graph.
func TestExecutionHonorsValidation(t *testing.T) {
	g := graph.New()
	if _, err := runErr(DialectRevised, g, `MERGE (a:A{id:1})`); err == nil {
		t.Fatal("bare MERGE must be rejected by the revised dialect at execution")
	}
	if g.NumNodes() != 0 {
		t.Error("rejected statement must not mutate")
	}
	// Skipping validation exposes the engine-level error path.
	stmt, err := parser.Parse(`MERGE (a:A{id:1})`)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Config{Dialect: DialectRevised, skipValidation: true})
	if _, err := e.ExecuteStatement(g, stmt, nil); err == nil {
		t.Error("legacy MERGE must still fail in the revised dialect at runtime")
	}
}
