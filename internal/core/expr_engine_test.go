package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/parser"
)

// exprEquivSetup is a small graph with strings, numbers, lists and
// missing properties — the shapes the expression corpus below probes.
var exprEquivSetup = []string{
	`CREATE (:E{name:'Ada Lovelace', age:36, tags:'math,logic', email:'ada@x.io'}),
	        (:E{name:'bob', age:41, tags:'ops'}),
	        (:E{name:'CYD', age:23, tags:'db,graphs,cypher', email:'cyd@x.io'}),
	        (:E{name:'dee', age:55, tags:''})`,
}

// exprEquivQueries exercises the registry's new functions, list
// comprehensions, both CASE forms and reduce through full statements,
// so every executor lowers and evaluates them.
var exprEquivQueries = []string{
	`MATCH (e:E) RETURN e.name AS n, split(e.tags, ',') AS tags ORDER BY n`,
	`MATCH (e:E) RETURN replace(e.name, 'a', '_') AS r ORDER BY r`,
	`MATCH (e:E) RETURN left(e.name, 3) + '|' + right(e.name, 2) AS clip ORDER BY clip`,
	`MATCH (e:E) RETURN e.name AS n, sign(e.age - 40) AS s, round(e.age / 7.0, 2) AS r ORDER BY n`,
	`MATCH (e:E) WHERE exists(e.email) RETURN toUpper(e.name) AS n ORDER BY n`,
	`MATCH (e:E) RETURN e.name AS n,
	        [t IN split(e.tags, ',') WHERE size(t) > 2 | toUpper(t)] AS big ORDER BY n`,
	`MATCH (e:E) RETURN e.name AS n,
	        reduce(s = 0, t IN split(e.tags, ',') | s + size(t)) AS letters ORDER BY n`,
	`MATCH (e:E) RETURN e.name AS n,
	        CASE WHEN e.age < 30 THEN 'young' WHEN e.age < 50 THEN 'mid' ELSE 'old' END AS band ORDER BY n`,
	`MATCH (e:E) RETURN e.name AS n,
	        CASE size(split(e.tags, ',')) WHEN 1 THEN 'one' WHEN 3 THEN 'three' ELSE 'other' END AS k ORDER BY n`,
	`UNWIND range(1, 5) AS i RETURN i, tail(range(1, i)) AS t, last(range(0, i)) AS l ORDER BY i`,
	`MATCH (e:E) RETURN e.name AS n, datetime(e.age * 86400000).day AS d ORDER BY n`,
	`MATCH (e:E) WHERE toLower(e.name) STARTS WITH 'c' RETURN reverse(e.name) AS r`,
	`MATCH (e:E) RETURN coalesce(e.email, 'none') AS m ORDER BY m`,
}

// TestExpressionEquivalenceAcrossExecutors requires bit-identical
// rendered results for the expression corpus across both dialects and
// serial vs parallel execution — the acceptance bar for the registry
// migration: dispatch, scoping and folding must not depend on how the
// plan is driven.
func TestExpressionEquivalenceAcrossExecutors(t *testing.T) {
	base := graph.New()
	setup := NewEngine(Config{Dialect: DialectRevised})
	for _, s := range exprEquivSetup {
		stmt, err := parser.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := setup.ExecuteStatement(base, stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range exprEquivQueries {
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		var want string
		first := true
		for _, dialect := range []Dialect{DialectRevised, DialectCypher9} {
			for _, par := range []int{1, 4} {
				cfg := Config{Dialect: dialect, Parallelism: par}
				res, err := NewEngine(cfg).ExecuteStatement(base.Clone(), stmt, nil)
				if err != nil {
					t.Fatalf("%s/par%d: %q: %v", dialect, par, q, err)
				}
				got := renderMultiset(res)
				if first {
					want, first = got, false
					continue
				}
				if got != want {
					t.Errorf("%s/par%d: %q diverged:\n got:\n%s\nwant:\n%s",
						dialect, par, q, got, want)
				}
			}
		}
	}
}

// TestFunctionNamesCaseInsensitiveBothDialects is the satellite
// regression: Cypher function names match case-insensitively in both
// dialects, including through WHERE (where pushdown sees them).
func TestFunctionNamesCaseInsensitiveBothDialects(t *testing.T) {
	for _, dialect := range []Dialect{DialectRevised, DialectCypher9} {
		g := graph.New()
		eng := NewEngine(Config{Dialect: dialect})
		exec := func(q string) *Result {
			t.Helper()
			stmt, err := parser.Parse(q)
			if err != nil {
				t.Fatalf("%s: parse %q: %v", dialect, q, err)
			}
			res, err := eng.ExecuteStatement(g, stmt, nil)
			if err != nil {
				t.Fatalf("%s: %q: %v", dialect, q, err)
			}
			return res
		}
		exec(`CREATE (:C{name:'ada'}), (:C{})`)
		for _, q := range []string{
			`MATCH (c:C) WHERE EXISTS(c.name) RETURN TOUPPER(c.name) AS n`,
			`MATCH (c:C) WHERE exists(c.name) RETURN toUpper(c.name) AS n`,
			`MATCH (c:C) WHERE eXiStS(c.name) RETURN tOuPpEr(c.name) AS n`,
		} {
			res := exec(q)
			if res.Table.Len() != 1 || renderValue(res.Table.Values(0)[0]) != "'ADA'" {
				t.Errorf("%s: %q: got %s", dialect, q, renderMultiset(res))
			}
		}
	}
}

// TestExplainShowsFoldingAndPushdown pins the PR's two planner-visible
// acceptance behaviours in one place: a pure+total conjunct (exists)
// joins the comparison under pushed=, a parameter-free pure subtree is
// folded into the printed predicate, and a nondeterministic conjunct
// is never pushed.
func TestExplainShowsFoldingAndPushdown(t *testing.T) {
	g := graph.New()
	eng := NewEngine(Config{Dialect: DialectRevised})
	setup, err := parser.Parse(`CREATE (:P{age:36, email:'a@x'})`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExecuteStatement(g, setup, nil); err != nil {
		t.Fatal(err)
	}
	explain := func(q string) string {
		t.Helper()
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		out, err := eng.ExplainStatement(g, stmt, nil)
		if err != nil {
			t.Fatalf("explain %q: %v", q, err)
		}
		return out
	}

	out := explain(`MATCH (n:P) WHERE exists(n.email) AND n.age > 30 RETURN n.age AS a`)
	if !strings.Contains(out, "pushed=") ||
		!strings.Contains(out, "exists(n.email)") || !strings.Contains(out, "(n.age > 30)") {
		t.Errorf("exists + comparison should both be pushed:\n%s", out)
	}

	out = explain(`MATCH (n:P) WHERE n.age > 10 + 20 RETURN n.age AS a`)
	if !strings.Contains(out, "pushed=[(n.age > 30)]") {
		t.Errorf("constant 10 + 20 should fold to 30 inside the pushed predicate:\n%s", out)
	}

	out = explain(`MATCH (n:P) WHERE rand() < 0.5 AND n.age > 30 RETURN n.age AS a`)
	if strings.Contains(out, "rand") && strings.Contains(out, "pushed=") &&
		strings.Contains(out[strings.Index(out, "pushed="):], "rand") {
		t.Errorf("nondeterministic rand() must never appear under pushed=:\n%s", out)
	}

	out = explain(`UNWIND range(1, 3) AS i WITH i WHERE i > size('ab') RETURN i + size([1, 2]) AS x`)
	if !strings.Contains(out, "(i > 2)") {
		t.Errorf("size('ab') should fold to 2 in the filter:\n%s", out)
	}
}

// TestPushdownNeverPrunesErrors extends the error-preservation suite to
// function calls: a fallible conjunct alongside a pushable one must
// error identically whether or not the pushable conjunct pruned first.
func TestPushdownNeverPrunesErrors(t *testing.T) {
	g := graph.New()
	setup, err := parser.Parse(`CREATE (:N{name:'x', y:1})`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(Config{Dialect: DialectRevised}).ExecuteStatement(g, setup, nil); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`MATCH (a:N) WHERE toUpper(a.name) = 'X' AND 1/0 = 1 RETURN a.y AS y`,
		`MATCH (a:N) WHERE 1/0 = 1 AND exists(a.name) RETURN a.y AS y`,
		`MATCH (a:N) WHERE exists(a.missing) AND toUpper(a.y) = 'X' RETURN a.y AS y`,
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

// TestBinderShadowsColumnInProjection runs binders whose variable is a
// column of the row they evaluate over, through whole statements: one
// Project item (and one WHERE, one UPDATE item) reads the column after
// the binder that shadowed it, in every executor shape, and a MATCH's
// pattern variable shadowed in its own WHERE still binds afterwards.
func TestBinderShadowsColumnInProjection(t *testing.T) {
	g := graph.New()
	run(t, DialectRevised, g, `CREATE (:B{v: 1}), (:B{v: 2})`)
	for _, c := range []struct{ q, want string }{
		{`UNWIND [1, 2] AS x RETURN [x IN [10, 20] | x] + [x] AS l ORDER BY l`, "[10, 20, 1]|[10, 20, 2]"},
		{`UNWIND [1, 2] AS x WITH x WHERE any(x IN [7] WHERE x = 7) AND x > 1 RETURN x`, "2"},
		{`UNWIND [3] AS x RETURN reduce(x = 0, x IN [1, 2] | x) + x AS r`, "5"},
		{`MATCH (n:B) WHERE all(n IN [1] WHERE n = 1) RETURN n.v + size([n IN [0, 0] | n]) AS v ORDER BY v`, "3|4"},
		{`MATCH (n:B) SET n.w = [n IN [n.v] | n * 10][0] + n.v RETURN n.w AS w ORDER BY w`, "11|22"},
	} {
		for _, cfg := range []Config{{Dialect: DialectRevised, Parallelism: 1}, {Dialect: DialectRevised, Parallelism: 2}, {Dialect: DialectCypher9}} {
			res, err := runCfg(t, cfg, g, c.q, nil)
			if err != nil {
				t.Fatalf("%s: %v", c.q, err)
			}
			var got []string
			for i := range res.Table.Len() {
				got = append(got, renderValue(res.Table.Values(i)[0]))
			}
			if strings.Join(got, "|") != c.want {
				t.Errorf("%s (parallelism %d, %s): %s, want %s", c.q, cfg.Parallelism, cfg.Dialect, strings.Join(got, "|"), c.want)
			}
		}
	}
	if _, err := runErr(DialectRevised, g, `UNWIND [1] AS y RETURN [x IN [y] | x] + [x] AS l`); err == nil || !strings.Contains(err.Error(), "`x` not defined") {
		t.Errorf("a binder variable read after its binder: error %v, want x not defined", err)
	}
}
