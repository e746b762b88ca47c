package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/table"
	"repro/internal/value"
	"repro/internal/workload"
)

// Property: legacy MERGE over an n-record table is equivalent to running
// MERGE ALL once per record, in the same order. (Legacy MERGE processes
// the table record by record against the live graph; MERGE ALL over a
// singleton table does exactly one match-or-create step against its
// input graph, so the two compositions coincide.)
func TestLegacyMergeEqualsSequentialMergeAll(t *testing.T) {
	legacyStmt, err := parser.Parse(`MERGE (:User{id:cid})-[:ORDERED]->(:Product{id:pid})`)
	if err != nil {
		t.Fatal(err)
	}
	allStmt, err := parser.Parse(`MERGE ALL (:User{id:cid})-[:ORDERED]->(:Product{id:pid})`)
	if err != nil {
		t.Fatal(err)
	}

	f := func(seed int64, nRows uint8) bool {
		rows := int(nRows%20) + 1
		imp := workload.OrderImport{Rows: rows, Customers: 4, Products: 3, NullRate: 0.3, Seed: seed}
		tbl := imp.Build()

		gLegacy := graph.New()
		if _, err := NewEngine(Config{Dialect: DialectCypher9}).
			ExecuteWithTable(gLegacy, legacyStmt, nil, tbl.Clone()); err != nil {
			t.Log(err)
			return false
		}

		gSeq := graph.New()
		eng := NewEngine(Config{Dialect: DialectRevised})
		for i := 0; i < tbl.Len(); i++ {
			single := table.New(tbl.Columns()...)
			single.AppendRow(tbl.Values(i)...)
			if _, err := eng.ExecuteWithTable(gSeq, allStmt, nil, single); err != nil {
				t.Log(err)
				return false
			}
		}
		return graph.Isomorphic(gLegacy, gSeq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: MERGE SAME is idempotent on tables whose pattern keys are
// non-null — a second import of the same table changes nothing.
func TestMergeSameIdempotentOnNonNullKeys(t *testing.T) {
	stmt, err := parser.Parse(`MERGE SAME (:User{id:cid})-[:ORDERED]->(:Product{id:pid})`)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, nRows uint8) bool {
		rows := int(nRows%30) + 1
		imp := workload.OrderImport{Rows: rows, Customers: 5, Products: 4, NullRate: 0, Seed: seed}
		tbl := imp.Build()
		g := graph.New()
		eng := NewEngine(Config{Dialect: DialectRevised})
		if _, err := eng.ExecuteWithTable(g, stmt, nil, tbl.Clone()); err != nil {
			return false
		}
		fp := graph.Fingerprint(g)
		res, err := eng.ExecuteWithTable(g, stmt, nil, tbl.Clone())
		if err != nil {
			return false
		}
		return graph.Fingerprint(g) == fp && res.Stats.NodesCreated == 0 && res.Stats.RelsCreated == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: under every revised MERGE strategy the result is invariant
// under driving-table permutation (up to id renaming) — the Section 7
// determinism requirement — on randomized clickstream workloads.
func TestMergeStrategiesPermutationInvariant(t *testing.T) {
	c := workload.Clickstream{Sessions: 6, PathLen: 3, Products: 3, Seed: 11}
	query := `MERGE ALL ` + c.PathQuery()
	stmt, err := parser.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []MergeStrategy{
		StrategyAtomic, StrategyGrouping, StrategyWeakCollapse,
		StrategyCollapse, StrategyStrongCollapse,
	} {
		var fp string
		for seed := int64(0); seed < 4; seed++ {
			g, tbl := c.Build()
			if seed > 0 {
				tbl.Permute(workload.Shuffle(tbl.Len(), seed))
			}
			cfg := Config{Dialect: DialectRevised, MergeStrategy: s}
			if _, err := NewEngine(cfg).ExecuteWithTable(g, stmt, nil, tbl); err != nil {
				t.Fatal(err)
			}
			f := graph.Fingerprint(g)
			if fp == "" {
				fp = f
			} else if f != fp {
				t.Errorf("%v: permutation changed the result", s)
			}
		}
	}
}

// statementPool is a generator of random, usually-valid statements used
// by the invariant fuzz test below.
func statementPool(rng *rand.Rand) string {
	k := func(n int) int64 { return int64(rng.Intn(n)) }
	pool := []func() string{
		func() string { return fmt.Sprintf(`CREATE (:A{id:%d})-[:T{w:%d}]->(:B{id:%d})`, k(5), k(3), k(5)) },
		func() string { return fmt.Sprintf(`CREATE (:C{id:%d})`, k(5)) },
		func() string { return fmt.Sprintf(`MATCH (a:A{id:%d}) SET a.touched = %d`, k(5), k(9)) },
		func() string { return fmt.Sprintf(`MATCH (a:A{id:%d}) REMOVE a.touched`, k(5)) },
		func() string { return fmt.Sprintf(`MATCH (a:A{id:%d}) DETACH DELETE a`, k(5)) },
		func() string { return fmt.Sprintf(`MATCH (a)-[r:T{w:%d}]->(b) DELETE r`, k(3)) },
		func() string { return fmt.Sprintf(`MATCH (c:C{id:%d}) SET c:Marked`, k(5)) },
		func() string { return `MATCH (c:Marked) REMOVE c:Marked` },
		func() string { return fmt.Sprintf(`FOREACH (i IN range(1,%d) | CREATE (:F{i:i}))`, 1+k(3)) },
		func() string { return fmt.Sprintf(`MATCH (f:F) WITH f LIMIT %d DETACH DELETE f`, 1+k(2)) },
	}
	return pool[rng.Intn(len(pool))]()
}

// Invariant fuzz: after any sequence of random statements — successful or
// not — the graph satisfies the no-dangling invariant, and failed
// statements leave the graph byte-identical.
func TestRandomStatementsPreserveInvariants(t *testing.T) {
	for _, d := range []Dialect{DialectCypher9, DialectRevised} {
		rng := rand.New(rand.NewSource(42))
		g := graph.New()
		eng := NewEngine(Config{Dialect: d})
		for i := 0; i < 300; i++ {
			src := statementPool(rng)
			stmt, err := parser.Parse(src)
			if err != nil {
				t.Fatalf("[%v] generator produced unparseable %q: %v", d, src, err)
			}
			before := graph.Fingerprint(g)
			if _, err := eng.ExecuteStatement(g, stmt, nil); err != nil {
				if graph.Fingerprint(g) != before {
					t.Fatalf("[%v] failed statement %q mutated the graph", d, src)
				}
				continue
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("[%v] invariant broken after %q: %v", d, src, err)
			}
		}
	}
}

// Property: on single-record tables with non-overlapping reads and
// writes, the legacy and revised SET semantics agree.
func TestSetDialectsAgreeOnDisjointWrites(t *testing.T) {
	f := func(a, b int64) bool {
		query := fmt.Sprintf(`MATCH (n:N) SET n.a = %d, n.b = %d`, a, b)
		stmt, err := parser.Parse(query)
		if err != nil {
			return false
		}
		var fps []string
		for _, d := range []Dialect{DialectCypher9, DialectRevised} {
			g := graph.New()
			g.CreateNode([]string{"N"}, value.Map{"seed": value.Int(1)})
			if _, err := NewEngine(Config{Dialect: d}).ExecuteStatement(g, stmt, nil); err != nil {
				return false
			}
			fps = append(fps, graph.Fingerprint(g))
		}
		return fps[0] == fps[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The Example 1 phenomenon generalized: when SET items read what other
// items write, the dialects *disagree* — which is precisely the paper's
// point. This test pins the disagreement.
func TestSetDialectsDisagreeOnOverlappingWrites(t *testing.T) {
	query := `MATCH (n:N) SET n.a = n.b, n.b = n.a`
	stmt, err := parser.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[Dialect][2]value.Value)
	for _, d := range []Dialect{DialectCypher9, DialectRevised} {
		g := graph.New()
		n := g.CreateNode([]string{"N"}, value.Map{"a": value.Int(1), "b": value.Int(2)})
		if _, err := NewEngine(Config{Dialect: d}).ExecuteStatement(g, stmt, nil); err != nil {
			t.Fatal(err)
		}
		results[d] = [2]value.Value{g.NodeProp(n.ID, "a"), g.NodeProp(n.ID, "b")}
	}
	if results[DialectCypher9] != [2]value.Value{value.Int(2), value.Int(2)} {
		t.Errorf("legacy = %v, want [2 2]", results[DialectCypher9])
	}
	if results[DialectRevised] != [2]value.Value{value.Int(2), value.Int(1)} {
		t.Errorf("revised = %v, want [2 1] (the swap)", results[DialectRevised])
	}
}
