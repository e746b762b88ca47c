package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/value"
)

// parallelTestGraph builds a graph big enough to clear the morsel
// thresholds: n :U nodes (i, g properties) in a ring of :F
// relationships with chords every 7 nodes.
func parallelTestGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.New()
	nodes := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		nd := g.CreateNode([]string{"U"}, value.Map{"i": value.Int(int64(i)), "g": value.Int(int64(i % 64))})
		nodes[i] = nd.ID
	}
	for i := 0; i < n; i++ {
		if _, err := g.CreateRel(nodes[i], nodes[(i+1)%n], "F", nil); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if _, err := g.CreateRel(nodes[i], nodes[(i+13)%n], "F", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// TestParallelExecutorEquivalence runs read pipelines at parallelism
// 1, 2 and 8 against the serial plan and requires BIT-IDENTICAL output
// — not just multiset equality — for every shape, ordered or not: the
// exchange gathers morsels in index order, so a parallel plan must
// emit exactly the serial row sequence. The sweep runs with and
// without a memory budget (the budgeted pass exercises the parallel
// Sort spill intake).
func TestParallelExecutorEquivalence(t *testing.T) {
	g := parallelTestGraph(t, 3000)
	queries := []struct {
		q            string
		wantExchange bool
	}{
		{`MATCH (u:U) WHERE u.i % 3 = 0 RETURN u.i AS i`, true},
		{`MATCH (u:U) WITH u.i AS i WHERE i % 3 = 0 RETURN i % 7 AS r, i ORDER BY r, i DESC`, true},
		{`MATCH (u:U) RETURN u.g AS g, count(*) AS c, collect(u.i)[0] AS first`, true},
		{`MATCH (u:U) WHERE u.i < 500 RETURN DISTINCT u.g AS g`, true},
		{`MATCH (u:U) RETURN u.i AS i SKIP 10 LIMIT 7`, true},
		{`MATCH (u:U)-[:F]->(v:U) WHERE u.g = 3 RETURN u.i AS a, v.i AS b ORDER BY a, b`, true},
		{`MATCH (u:U) UNWIND [1, 2] AS k RETURN u.i + k AS v ORDER BY v LIMIT 11`, true},
		{`MATCH (u:U) OPTIONAL MATCH (u)-[:F]->(w:U) WHERE w.i = u.i + 1 RETURN u.i AS i, w.i AS wi ORDER BY i LIMIT 40`, true},
		{`MATCH (u:U) WHERE u.i < 64 MATCH (v:U) WHERE v.i = u.i + 1 RETURN u.i AS a, v.i AS b`, true},
		// Two unit-source union members, each its own exchange.
		{`MATCH (u:U) WHERE u.g = 1 RETURN u.i AS i UNION ALL MATCH (v:U) WHERE v.g = 2 RETURN v.i AS i`, true},
	}
	for _, budget := range []int64{0, 1 << 12} {
		for qi, tc := range queries {
			stmt, err := parser.Parse(tc.q)
			if err != nil {
				t.Fatalf("q%d parse: %v", qi, err)
			}
			var base string
			for _, par := range []int{1, 2, 8} {
				var root plan.Operator
				cfg := Config{Dialect: DialectRevised, Parallelism: par, MemoryBudget: budget}
				cfg.onPlan = func(op plan.Operator) { root = op }
				res, err := NewEngine(cfg).ExecuteStatement(g, stmt, nil)
				if err != nil {
					t.Fatalf("q%d par=%d budget=%d: %v", qi, par, budget, err)
				}
				out := res.Table.String()
				if par == 1 {
					base = out
					continue
				}
				if out != base {
					t.Errorf("q%d (%s) par=%d budget=%d output differs from serial:\n%s\n--- serial ---\n%s",
						qi, tc.q, par, budget, out, base)
				}
				rendered := plan.Explain(root)
				if tc.wantExchange && !strings.Contains(rendered, "Exchange(") {
					t.Errorf("q%d (%s) par=%d: plan has no exchange:\n%s", qi, tc.q, par, rendered)
				}
				if strings.Contains(rendered, "Exchange(") &&
					(!strings.Contains(rendered, "workers=") || !strings.Contains(rendered, "morsels=")) {
					t.Errorf("q%d par=%d: executed exchange lacks workers=/morsels= counters:\n%s", qi, par, rendered)
				}
			}
			if live := plan.SpillFilesLive(); live != 0 {
				t.Fatalf("q%d budget=%d: %d spill files still live", qi, budget, live)
			}
		}
	}
}

// TestParallelUpdatesStaySerial checks the gate: an updating statement
// never gets an exchange, whatever the configured parallelism.
func TestParallelUpdatesStaySerial(t *testing.T) {
	g := parallelTestGraph(t, 3000)
	stmt, err := parser.Parse(`MATCH (u:U) WHERE u.i % 2 = 0 SET u.g = u.g + 1 RETURN count(*) AS n`)
	if err != nil {
		t.Fatal(err)
	}
	var root plan.Operator
	cfg := Config{Dialect: DialectRevised, Parallelism: 8}
	cfg.onPlan = func(op plan.Operator) { root = op }
	if _, err := NewEngine(cfg).ExecuteStatement(g, stmt, nil); err != nil {
		t.Fatal(err)
	}
	if s := plan.Explain(root); strings.Contains(s, "Exchange(") {
		t.Fatalf("updating statement got a parallel plan:\n%s", s)
	}
}

// TestParallelErrorPropagation checks a runtime error inside a morsel
// surfaces as the statement error with the same message the serial run
// produces (morsels are claimed and gathered in index order, so the
// first error seen is the serial-first one), and that no spill files
// or workers leak afterwards.
func TestParallelErrorPropagation(t *testing.T) {
	g := parallelTestGraph(t, 3000)
	stmt, err := parser.Parse(`MATCH (u:U) RETURN 1 / (u.i - 2500) AS v`)
	if err != nil {
		t.Fatal(err)
	}
	serialErr := func() string {
		_, err := NewEngine(Config{Dialect: DialectRevised, Parallelism: 1}).ExecuteStatement(g, stmt, nil)
		if err == nil {
			t.Fatal("serial run: expected division error")
		}
		return err.Error()
	}()
	for _, par := range []int{2, 8} {
		_, err := NewEngine(Config{Dialect: DialectRevised, Parallelism: par}).ExecuteStatement(g, stmt, nil)
		if err == nil {
			t.Fatalf("par=%d: expected division error", par)
		}
		if err.Error() != serialErr {
			t.Errorf("par=%d error %q differs from serial %q", par, err.Error(), serialErr)
		}
	}
	if live := plan.SpillFilesLive(); live != 0 {
		t.Fatalf("%d spill files still live after error", live)
	}
}

// TestParallelSortIntakeKeepsSerialIdentity covers what the sweep's
// unique sort keys cannot: rows tied on the ORDER BY key but read by
// different morsels must keep their serial order (the Sort drains the
// ordered gather and numbers rows by intake position), and when
// several morsels' rows fail sort-key evaluation, the Sort must report
// the serial-first error. Morsel 0 fails on its last row while later
// morsels fail on their first, so a drain that evaluated keys as rows
// arrived from any worker would see the serial-first error last.
func TestParallelSortIntakeKeepsSerialIdentity(t *testing.T) {
	g := parallelTestGraph(t, 3000)
	run := func(q string, par int, budget int64) (string, error) {
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Dialect: DialectRevised, Parallelism: par, MemoryBudget: budget}
		res, err := NewEngine(cfg).ExecuteStatement(g, stmt, nil)
		if err != nil {
			return "", err
		}
		return res.Table.String(), nil
	}
	const ties = `MATCH (u:U) RETURN u.i AS i ORDER BY u.g`
	const errs = `MATCH (u:U) RETURN u.i AS i ORDER BY CASE WHEN u.i = 45 THEN 1 / (u.i - 45) WHEN u.i >= 100 THEN u.i.x ELSE u.i END`
	for _, budget := range []int64{0, 1 << 12} {
		want, err := run(ties, 1, budget)
		if err != nil {
			t.Fatal(err)
		}
		_, serialErr := run(errs, 1, budget)
		if serialErr == nil {
			t.Fatal("serial run: expected an error")
		}
		for _, par := range []int{2, 8} {
			if got, err := run(ties, par, budget); err != nil || got != want {
				t.Errorf("par=%d budget=%d: tied rows out of serial order (err %v)", par, budget, err)
			}
			if _, err := run(errs, par, budget); err == nil || err.Error() != serialErr.Error() {
				t.Errorf("par=%d budget=%d: error %v, serial %q", par, budget, err, serialErr)
			}
		}
	}
	if live := plan.SpillFilesLive(); live != 0 {
		t.Fatalf("%d spill files still live", live)
	}
}

// TestParallelCancellationDrainsWorkers exercises the two early-exit
// paths of an exchange under a spill-forcing budget: a LIMIT that
// abandons the pipeline mid-stream, and a runtime error mid-morsels.
// After each statement every worker goroutine must have drained and
// every spill temp file must be gone.
func TestParallelCancellationDrainsWorkers(t *testing.T) {
	g := parallelTestGraph(t, 3000)
	baseline := runtime.NumGoroutine()
	cases := []struct {
		q       string
		wantErr bool
	}{
		// LIMIT above the exchange: the gatherer stops pulling after 3
		// rows and Close cancels the in-flight morsels.
		{`MATCH (u:U) RETURN u.i AS i LIMIT 3`, false},
		// ORDER BY + LIMIT with a tiny budget: the Sort over the
		// gather keeps only the 5 rows of its bound.
		{`MATCH (u:U) RETURN u.i AS i ORDER BY u.g, i LIMIT 5`, false},
		// Error mid-stream while workers are fanned out.
		{`MATCH (u:U) RETURN 1 / (u.i - 2900) AS v ORDER BY v`, true},
	}
	for ci, tc := range cases {
		stmt, err := parser.Parse(tc.q)
		if err != nil {
			t.Fatalf("case %d parse: %v", ci, err)
		}
		cfg := Config{Dialect: DialectRevised, Parallelism: 8, MemoryBudget: 1 << 10}
		_, err = NewEngine(cfg).ExecuteStatement(g, stmt, nil)
		if tc.wantErr && err == nil {
			t.Fatalf("case %d (%s): expected error", ci, tc.q)
		}
		if !tc.wantErr && err != nil {
			t.Fatalf("case %d (%s): %v", ci, tc.q, err)
		}
		if live := plan.SpillFilesLive(); live != 0 {
			t.Fatalf("case %d (%s): %d spill files still live", ci, tc.q, live)
		}
	}
	// ORDER BY + LIMIT whose bound alone exceeds the budget: the bounded
	// Sort still spills runs, and LIMIT abandons their merge early.
	const spilling = `MATCH (u:U) RETURN u.i AS i ORDER BY u.g, i LIMIT 500`
	stmt, err := parser.Parse(spilling)
	if err != nil {
		t.Fatal(err)
	}
	var root plan.Operator
	cfg := Config{Dialect: DialectRevised, Parallelism: 8, MemoryBudget: 1 << 10}
	cfg.onPlan = func(op plan.Operator) { root = op }
	res, err := NewEngine(cfg).ExecuteStatement(g, stmt, nil)
	if err != nil {
		t.Fatalf("%s: %v", spilling, err)
	}
	if res.Table.Len() != 500 {
		t.Fatalf("%s: %d rows, want 500", spilling, res.Table.Len())
	}
	if !sortSpilled(root) {
		t.Fatalf("%s: the Sort did not spill:\n%s", spilling, plan.Explain(root))
	}
	if live := plan.SpillFilesLive(); live != 0 {
		t.Fatalf("%s: %d spill files still live", spilling, live)
	}
	// Workers must drain: allow the runtime a moment to retire exited
	// goroutines, then require no residue beyond the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelExplainShowsExchange checks EXPLAIN (no execution)
// renders the exchange boundary with its configured degree and the
// morsel partitioning, without execution counters.
func TestParallelExplainShowsExchange(t *testing.T) {
	g := parallelTestGraph(t, 3000)
	eng := NewEngine(Config{Dialect: DialectRevised, Parallelism: 4})
	stmt, err := parser.Parse(`MATCH (u:U) WHERE u.g = 5 RETURN u.i AS i`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.ExplainStatement(g, stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Exchange(workers=4") {
		t.Fatalf("EXPLAIN lacks exchange boundary:\n%s", out)
	}
	if !strings.Contains(out, "anchor-morsels(") {
		t.Fatalf("EXPLAIN lacks morsel partitioning:\n%s", out)
	}
	if strings.Contains(out, "morsels=") && strings.Contains(out, "{rows=") {
		t.Fatalf("EXPLAIN of an unexecuted plan shows execution counters:\n%s", out)
	}
}
