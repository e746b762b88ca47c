package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/value"
)

// profileFixture is the graph every PROFILE golden case starts from:
// 40 :P nodes with a group property, and a :R chain link out of every
// fourth node.
func profileFixture(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	eng := NewEngine(Config{Dialect: DialectRevised, Parallelism: 1})
	for _, q := range []string{
		`UNWIND range(0, 39) AS i CREATE (:P{i:i, g:i % 5})`,
		`MATCH (a:P), (b:P) WHERE b.i = a.i + 1 AND a.i % 4 = 0 CREATE (a)-[:R]->(b)`,
	} {
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ExecuteStatement(g, stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// profileText executes q on g under cfg and renders the executed plan
// with its counters, as PROFILE does.
func profileText(t *testing.T, cfg Config, g *graph.Graph, q string, params map[string]value.Value, t0 *table.Table) string {
	t.Helper()
	stmt, err := parser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	var root plan.Operator
	cfg.onPlan = func(op plan.Operator) { root = op }
	if _, err := NewEngine(cfg).ExecuteWithTable(g, stmt, params, t0); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return plan.Explain(root)
}

// TestProfileGolden pins the PROFILE text of every operator the builder
// emits at parallelism 1, with and without a spill-forcing memory
// budget: operator names, tree shape and every counter.
func TestProfileGolden(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "rows.csv")
	if err := os.WriteFile(csvPath, []byte("v\n1\n2\n3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	drive := table.New("x")
	for i := int64(0); i < 10; i++ {
		drive.AppendRow(value.Int(i))
	}
	cases := []struct {
		name string
		q    string
		t0   *table.Table
	}{
		{"read", `MATCH (a:P) WHERE a.i > 2 OPTIONAL MATCH (a)-[:R]->(b) WITH a, b WHERE a.i < 30 RETURN DISTINCT a.g AS g ORDER BY g SKIP 1 LIMIT 3`, nil},
		{"aggregate", `UNWIND range(1, 20) AS x WITH x, x % 3 AS k RETURN k, count(*) AS c, collect(x) AS xs ORDER BY k`, nil},
		{"csv", `LOAD CSV WITH HEADERS FROM $file AS row CREATE (:C{v: toInteger(row.v)})`, nil},
		{"table-union", `MATCH (a:P) WHERE a.i = x RETURN a.i AS i UNION MATCH (b:P) WHERE b.i = x * 2 RETURN b.i AS i`, drive},
		{"table-update", `MATCH (a:P{i: x}) SET a.seen = true WITH a MERGE SAME (m:M{g: a.g}) RETURN count(*) AS n`, drive},
	}
	params := map[string]value.Value{"file": value.String(csvPath)}
	for _, budget := range []int64{0, 1} {
		for _, c := range cases {
			name := c.name
			if budget > 0 {
				name += "/spill"
			}
			t.Run(name, func(t *testing.T) {
				cfg := Config{Dialect: DialectRevised, Parallelism: 1, MemoryBudget: budget}
				got := profileText(t, cfg, profileFixture(t), c.q, params, c.t0)
				if want := profileGolden[name]; got != want {
					t.Errorf("PROFILE %s:\n%s\nwant:\n%s", c.q, got, want)
				}
			})
		}
	}
}

var profileGolden = map[string]string{
	"read": `Limit(3) {rows=3 batches=2}
└─ Skip(1) {rows=3 batches=2}
   └─ Sort[barrier](g) {rows=4 batches=2}
      └─ Distinct {rows=5 batches=1}
         └─ Project[g] {rows=27 batches=1}
            └─ Filter((a.i < 30)) {rows=27 batches=1}
               └─ Project[a, b] {rows=37 batches=1}
                  └─ OptionalMatch((a)-[:R]->(b)) order=[0] anchor=[a] est=[0.5] {rows=37 batches=1}
                     └─ Match((a:P)) order=[0] anchor=[a] est=[20] pushed=[(a.i > 2)] WHERE … {rows=37 batches=1}
                        └─ Unit {rows=1 batches=1}`,
	"aggregate": `Sort[barrier](k) {rows=3 batches=1}
└─ Aggregate[barrier][k, c, xs] {rows=3 batches=1}
   └─ Project[x, k] {rows=20 batches=1}
      └─ Unwind([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20] AS x) {rows=20 batches=1}
         └─ Unit {rows=1 batches=1}`,
	"csv": `Discard {rows=0 batches=1}
└─ Update[barrier:writer-lock](CREATE) {rows=3 batches=1}
   └─ LoadCSV($file AS row) {rows=3 batches=1}
      └─ Unit {rows=1 batches=1}`,
	"table-union": `Distinct {rows=15 batches=2}
└─ Union(2 members) {rows=20 batches=2}
   ├─ Project[i] {rows=10 batches=1}
   │  └─ Match((a:P)) order=[0] anchor=[a] est=[20] pushed=[(a.i = x)] WHERE … {rows=10 batches=1}
   │     └─ Scan(10×1) {rows=10 batches=1}
   └─ Project[i] {rows=10 batches=1}
      └─ Match((b:P)) order=[0] anchor=[b] est=[20] pushed=[(b.i = (x * 2))] WHERE … {rows=10 batches=1}
         └─ Scan(10×1) {rows=10 batches=1}`,
	"table-update": `Aggregate[barrier][n] {rows=1 batches=1}
└─ Update[barrier:writer-lock](MERGE SAME) {rows=10 batches=1}
   └─ Project[a] {rows=10 batches=1}
      └─ Update[barrier:writer-lock](SET) {rows=10 batches=1}
         └─ Match((a:P {i: x})) order=[0] anchor=[a] est=[4] {rows=10 batches=1}
            └─ Scan(10×1) {rows=10 batches=1}`,
	"read/spill": `Limit(3) {rows=3 batches=2}
└─ Skip(1) {rows=3 batches=2}
   └─ Sort[barrier](g) {rows=4 batches=2 peak=480B spill-runs=0}
      └─ Distinct {rows=5 batches=2 peak=104B spill-runs=8}
         └─ Project[g] {rows=27 batches=1}
            └─ Filter((a.i < 30)) {rows=27 batches=1}
               └─ Project[a, b] {rows=37 batches=1}
                  └─ OptionalMatch((a)-[:R]->(b)) order=[0] anchor=[a] est=[0.5] {rows=37 batches=1}
                     └─ Match((a:P)) order=[0] anchor=[a] est=[20] pushed=[(a.i > 2)] WHERE … {rows=37 batches=1}
                        └─ Unit {rows=1 batches=1}`,
	"aggregate/spill": `Sort[barrier](k) {rows=3 batches=1 peak=728B spill-runs=0}
└─ Aggregate[barrier][k, c, xs] {rows=3 batches=1 peak=652B spill-runs=8}
   └─ Project[x, k] {rows=20 batches=1}
      └─ Unwind([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20] AS x) {rows=20 batches=1}
         └─ Unit {rows=1 batches=1}`,
	"csv/spill": `Discard {rows=0 batches=1}
└─ Update[barrier:writer-lock](CREATE) {rows=3 batches=1}
   └─ LoadCSV($file AS row) {rows=3 batches=1}
      └─ Unit {rows=1 batches=1}`,
	"table-union/spill": `Distinct {rows=15 batches=2 peak=210B spill-runs=8}
└─ Union(2 members) {rows=20 batches=2}
   ├─ Project[i] {rows=10 batches=1}
   │  └─ Match((a:P)) order=[0] anchor=[a] est=[20] pushed=[(a.i = x)] WHERE … {rows=10 batches=1}
   │     └─ Scan(10×1) {rows=10 batches=1}
   └─ Project[i] {rows=10 batches=1}
      └─ Match((b:P)) order=[0] anchor=[b] est=[20] pushed=[(b.i = (x * 2))] WHERE … {rows=10 batches=1}
         └─ Scan(10×1) {rows=10 batches=1}`,
	"table-update/spill": `Aggregate[barrier][n] {rows=1 batches=1 peak=210B spill-runs=8}
└─ Update[barrier:writer-lock](MERGE SAME) {rows=10 batches=1}
   └─ Project[a] {rows=10 batches=1}
      └─ Update[barrier:writer-lock](SET) {rows=10 batches=1}
         └─ Match((a:P {i: x})) order=[0] anchor=[a] est=[4] {rows=10 batches=1}
            └─ Scan(10×1) {rows=10 batches=1}`,
}

// profileRows lists, for every Match, Unwind, Filter and Project line
// of a PROFILE text, the operator's name and its rows= counter ("-"
// when the line has no counters).
func profileRows(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimLeft(line, " │├└─")
		kind := false
		for _, k := range []string{"Match(", "OptionalMatch(", "Unwind(", "Filter(", "Project["} {
			kind = kind || strings.HasPrefix(line, k)
		}
		if !kind {
			continue
		}
		name, counters, ok := strings.Cut(line, " {rows=")
		rows := "-"
		if ok {
			rows, _, _ = strings.Cut(counters, " ")
		}
		out = append(out, name+" rows="+rows)
	}
	return out
}

// TestProfileCountsBelowExchange requires the operators an Exchange
// runs once per morsel to report under PROFILE the rows the serial plan
// reports: each morsel chain's counters are summed into the prototype
// chain that PROFILE renders. It covers anchor morsels under a Sort
// barrier and under a plain RETURN, both over the ordered gather, and
// scan morsels over a driving table.
func TestProfileCountsBelowExchange(t *testing.T) {
	g := graph.New()
	stmt, err := parser.Parse(`UNWIND range(0, 199) AS i CREATE (:P{i:i})`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(Config{Dialect: DialectRevised}).ExecuteStatement(g, stmt, nil); err != nil {
		t.Fatal(err)
	}
	drive := table.New("x")
	for i := int64(0); i < 2100; i++ {
		drive.AppendRow(value.Int(i))
	}
	cases := []struct {
		name, q, morsels string
		t0               *table.Table
	}{
		{"anchor-sort", `MATCH (p:P) WHERE p.i % 2 = 0 RETURN p.i AS i ORDER BY i LIMIT 3`, "anchor-morsels", nil},
		{"anchor-gather", `MATCH (p:P) UNWIND [1, 2] AS k WITH p, k WHERE p.i % 3 = 0 RETURN p.i AS i, k`, "anchor-morsels", nil},
		{"scan", `UNWIND [x, x + 1] AS y WITH x, y WHERE y % 3 = 0 MATCH (p:P) WHERE p.i = y % 200 RETURN p.i AS i`, "scan-morsels", drive},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serial := profileText(t, Config{Dialect: DialectRevised, Parallelism: 1}, g, c.q, nil, c.t0)
			par := profileText(t, Config{Dialect: DialectRevised, Parallelism: 2}, g, c.q, nil, c.t0)
			if !strings.Contains(par, "Exchange(workers=2, "+c.morsels) {
				t.Fatalf("parallelism 2 built no %s Exchange:\n%s", c.morsels, par)
			}
			want, got := profileRows(serial), profileRows(par)
			if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("counters below the Exchange differ from the serial plan's\nparallelism 2:\n%s\nparallelism 1:\n%s", par, serial)
			}
		})
	}
}

// TestExecuteWithTableLeavesDrivingTableUntouched runs update clauses,
// a UNION ALL and a parallel read over one driving table in both
// dialects: no statement may change a cell of the caller's table, which
// every UNION member and every scan morsel reads in place.
func TestExecuteWithTableLeavesDrivingTableUntouched(t *testing.T) {
	t0 := table.New("x", "s")
	for i := int64(0); i < 2100; i++ {
		t0.AppendRow(value.Int(i), value.String(fmt.Sprint("r", i%7)))
	}
	before := t0.Clone()
	for _, d := range []Dialect{DialectRevised, DialectCypher9} {
		merge := `MERGE SAME (m:M{s: s})`
		if d == DialectCypher9 {
			merge = `MERGE (m:M{s: s})`
		}
		stmts := []struct {
			q   string
			par int
		}{
			{`CREATE INDEX ON :N(x)`, 1},
			{`CREATE INDEX ON :U(x)`, 1},
			{`CREATE (n:N{x: x, s: s})`, 1},
			{merge, 1},
			{`MATCH (n:N{x: x}) SET n.y = x + 1, n.s = 'changed'`, 1},
			{`MATCH (n:N{x: x}) REMOVE n.y`, 1},
			{`FOREACH (v IN [x, s] | CREATE (:F{v: v}))`, 1},
			{`CREATE (:U{x: x}) RETURN x AS v UNION ALL MATCH (u:U{x: x}) RETURN u.x AS v`, 1},
			{`MATCH (n:N{x: x}) DETACH DELETE n`, 1},
			{`WITH x, s, x * 2 AS y WHERE y % 3 = 0 RETURN x, y, s`, 2},
		}
		g := graph.New()
		for _, st := range stmts {
			stmt, err := parser.Parse(st.q)
			if err != nil {
				t.Fatal(err)
			}
			var root plan.Operator
			cfg := Config{Dialect: d, Parallelism: st.par}
			cfg.onPlan = func(op plan.Operator) { root = op }
			if _, err := NewEngine(cfg).ExecuteWithTable(g, stmt, nil, t0); err != nil {
				t.Fatalf("%s %s: %v", d, st.q, err)
			}
			if st.par > 1 && !strings.Contains(plan.Explain(root), "scan-morsels") {
				t.Fatalf("%s %s: no scan-morsel Exchange:\n%s", d, st.q, plan.Explain(root))
			}
			if !reflect.DeepEqual(t0, before) {
				t.Fatalf("%s %s changed the driving table", d, st.q)
			}
		}
	}
}
