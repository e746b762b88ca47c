package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/plan"
)

// TestExecutorTriEquivalenceGolden replays both golden corpora under
// three executor configurations — serial, parallelism 2, and
// parallelism 8 with a spill-forcing budget=1 — and requires each to
// reproduce every pin of the case: tables, stats and final graphs.
// Neither setting may change a result: the exchange gathers morsels in
// order, and a spilling barrier replays exactly the rows it would have
// held in memory.
func TestExecutorTriEquivalenceGolden(t *testing.T) {
	arms := []struct {
		name string
		cfg  Config
	}{
		{"serial", Config{Parallelism: 1}},
		{"par2", Config{Parallelism: 2}},
		{"par8-budget1", Config{Parallelism: 8, MemoryBudget: 1}},
	}
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
				for _, arm := range arms {
					cfg := arm.cfg
					cfg.Dialect = suite.dialect
					checkGolden(t, c, arm.name, cfg)
				}
			})
		}
	}
}

// spiller is the stat surface every spilling barrier exposes.
type spiller interface {
	PeakBytes() int64
	SpillRuns() int64
}

// collectSpillers walks a plan gathering its barrier operators.
func collectSpillers(root plan.Operator) []spiller {
	var out []spiller
	var rec func(op plan.Operator)
	rec = func(op plan.Operator) {
		if s, ok := op.(spiller); ok {
			out = append(out, s)
		}
		for _, c := range op.Children() {
			rec(c)
		}
	}
	rec(root)
	return out
}

// TestTinyBudgetSpillEquivalence runs barrier-heavy read pipelines with
// an effectively-zero memory budget (every barrier spills) and requires
// output identical to the unlimited in-memory run — same rows, same
// order, same DISTINCT first occurrences — plus full temp-file cleanup.
func TestTinyBudgetSpillEquivalence(t *testing.T) {
	g := graph.New()
	eng := NewEngine(Config{Dialect: DialectRevised})
	for _, s := range []string{
		`UNWIND range(0, 400) AS i CREATE (:P{i:i, g:i % 7, s:'payload-' + toString(i % 13)})`,
	} {
		stmt, err := parser.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ExecuteStatement(g, stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		`MATCH (a:P) RETURN a.i AS i ORDER BY a.s, i DESC`,
		`MATCH (a:P) RETURN a.g AS g, count(*) AS c, collect(a.i)[0] AS first ORDER BY g`,
		`MATCH (a:P) RETURN DISTINCT a.s AS s`,
		`MATCH (a:P) WITH DISTINCT a.g AS g ORDER BY g DESC RETURN g SKIP 1 LIMIT 3`,
		`MATCH (a:P) RETURN a.s AS s, count(DISTINCT a.g) AS dg ORDER BY s`,
		`MATCH (a:P{g:1}) RETURN a.i AS i UNION MATCH (b:P{g:1}) RETURN b.i AS i`,
	}
	for qi, q := range queries {
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("q%d parse: %v", qi, err)
		}
		want, err := NewEngine(Config{Dialect: DialectRevised}).ExecuteStatement(g.Clone(), stmt, nil)
		if err != nil {
			t.Fatalf("q%d unlimited: %v", qi, err)
		}
		var root plan.Operator
		// Parallelism pinned to 1: the test asserts serial barrier spill
		// counters (the parallel sweep covers barriers over an Exchange).
		cfg := Config{Dialect: DialectRevised, MemoryBudget: 1, Parallelism: 1}
		cfg.onPlan = func(op plan.Operator) { root = op }
		got, err := NewEngine(cfg).ExecuteStatement(g.Clone(), stmt, nil)
		if err != nil {
			t.Fatalf("q%d budget=1: %v", qi, err)
		}
		if renderTable(got) != renderTable(want) {
			t.Errorf("q%d (%s) divergence under budget=1:\n%s\nvs unlimited:\n%s",
				qi, q, renderTable(got), renderTable(want))
		}
		if root == nil {
			t.Fatalf("q%d: onPlan hook not invoked", qi)
		}
		spilled := false
		for _, s := range collectSpillers(root) {
			if s.SpillRuns() > 0 {
				spilled = true
			}
		}
		if !spilled {
			t.Errorf("q%d (%s): no barrier spilled under budget=1", qi, q)
		}
		if live := plan.SpillFilesLive(); live != 0 {
			t.Fatalf("q%d: %d spill files still live", qi, live)
		}
	}
}

// TestBudgetBoundsBarrierPeak checks the budget is an actual bound: the
// accounted peak of every barrier stays within the budget plus one
// intake batch of slack, far below what the unlimited run holds. The
// bound does not depend on the degree: the Sort's peak and spill-run
// count at parallelism 2 and 8 equal those at parallelism 1.
func TestBudgetBoundsBarrierPeak(t *testing.T) {
	g := graph.New()
	eng := NewEngine(Config{Dialect: DialectRevised})
	stmt, err := parser.Parse(`UNWIND range(0, 20000) AS i CREATE (:Q{i:i, s:'some-reasonably-long-payload-string-' + toString(i % 500)})`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExecuteStatement(g, stmt, nil); err != nil {
		t.Fatal(err)
	}
	const budget = 64 << 10
	query := `MATCH (a:Q) RETURN a.s AS s, a.i AS i ORDER BY s, i`

	// Unlimited run: the sort holds everything; record its peak.
	var rootU plan.Operator
	cfgU := Config{Dialect: DialectRevised, MemoryBudget: 1 << 40, Parallelism: 1}
	cfgU.onPlan = func(op plan.Operator) { rootU = op }
	pstmt, err := parser.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(cfgU).ExecuteStatement(g.Clone(), pstmt, nil); err != nil {
		t.Fatal(err)
	}
	var unlimitedPeak int64
	for _, s := range collectSpillers(rootU) {
		if s.PeakBytes() > unlimitedPeak {
			unlimitedPeak = s.PeakBytes()
		}
	}
	if unlimitedPeak < 4*budget {
		t.Fatalf("workload too small to be meaningful: unlimited peak %d < 4×budget", unlimitedPeak)
	}

	// At parallelism 2 and 8 the sort drains an Exchange's ordered
	// gather: it takes in the serial row sequence, so it must hold and
	// spill exactly what it does at parallelism 1.
	var serialPeak, serialRuns int64
	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			var root plan.Operator
			cfg := Config{Dialect: DialectRevised, MemoryBudget: budget, Parallelism: par}
			cfg.onPlan = func(op plan.Operator) { root = op }
			if _, err := NewEngine(cfg).ExecuteStatement(g.Clone(), pstmt, nil); err != nil {
				t.Fatal(err)
			}
			if hasExchange(root) != (par > 1) {
				t.Fatalf("par=%d: plan has an Exchange = %v:\n%s", par, hasExchange(root), plan.Explain(root))
			}
			// One batch of rows may land between budget checks; allow
			// generous per-row slack beyond that.
			const slack = 64 << 10
			for _, s := range collectSpillers(root) {
				if s.PeakBytes() > budget+slack {
					t.Errorf("barrier peak %d exceeds budget %d + slack %d", s.PeakBytes(), budget, slack)
				}
				if s.SpillRuns() == 0 && s.PeakBytes() > 0 {
					t.Errorf("barrier held %d bytes without spilling under a %d budget", s.PeakBytes(), budget)
				}
			}
			var sorter *plan.Sort
			for _, s := range collectSpillers(root) {
				if op, ok := s.(*plan.Sort); ok {
					sorter = op
				}
			}
			if sorter == nil {
				t.Fatalf("plan has no Sort:\n%s", plan.Explain(root))
			}
			if par == 1 {
				serialPeak, serialRuns = sorter.PeakBytes(), sorter.SpillRuns()
			} else if sorter.PeakBytes() != serialPeak || sorter.SpillRuns() != serialRuns {
				t.Errorf("sort peak %d B with %d runs, at parallelism 1 %d B with %d runs",
					sorter.PeakBytes(), sorter.SpillRuns(), serialPeak, serialRuns)
			}
			if live := plan.SpillFilesLive(); live != 0 {
				t.Fatalf("%d spill files still live", live)
			}
		})
	}
}

// TestExplainShowsBudgetHeader checks the EXPLAIN header states the
// effective per-statement budget when one is configured.
func TestExplainShowsBudgetHeader(t *testing.T) {
	stmt, err := parser.Parse(`MATCH (a:P) RETURN a.i AS i ORDER BY i`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewEngine(Config{Dialect: DialectRevised, MemoryBudget: 12345}).
		ExplainStatement(graph.New(), stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "budget=12345 bytes") {
		t.Errorf("explain header missing budget:\n%s", out)
	}
	out, err = NewEngine(Config{Dialect: DialectRevised}).
		ExplainStatement(graph.New(), stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "budget=") {
		t.Errorf("unbudgeted explain mentions a budget:\n%s", out)
	}
}

// TestSessionProfile checks PROFILE executes the statement and renders
// the plan with observed counters (and spill stats under a budget).
func TestSessionProfile(t *testing.T) {
	store := graph.NewStore(graph.New())
	sess := NewSession(NewEngine(Config{Dialect: DialectRevised, MemoryBudget: 1}), store)
	mustParse := func(q string) *Prepared {
		stmt, err := sess.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		return stmt
	}
	if _, err := sess.Execute(mustParse(`UNWIND range(0, 100) AS i CREATE (:R{i:i})`), nil); err != nil {
		t.Fatal(err)
	}
	res, planText, err := sess.Profile(mustParse(`MATCH (a:R) RETURN a.i AS i ORDER BY i DESC LIMIT 5`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 5 {
		t.Fatalf("rows = %d, want 5", res.Table.Len())
	}
	if !strings.Contains(planText, "rows=") || !strings.Contains(planText, "batches=") {
		t.Errorf("profile output lacks counters:\n%s", planText)
	}
	if !strings.Contains(planText, "spill-runs=") {
		t.Errorf("profile output lacks spill stats under budget=1:\n%s", planText)
	}
	if _, _, err := sess.Profile(mustParse(`BEGIN`), nil); err == nil {
		t.Error("profiling BEGIN must be rejected")
	}
}
