package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/value"
)

// TestOrderByScope pins what ORDER BY sees after a plain projection:
// the projected aliases first, then the input variables no alias
// shadows, and nothing of the input past the sort. Each statement runs
// serially, at degree 2 (the projection runs per morsel below an
// Exchange) and under a budget that makes the Sort spill, and must
// return exactly the rows computed here from the graph's definition.
func TestOrderByScope(t *testing.T) {
	// 200 :P nodes; node k has i = 37k mod 200 (a permutation, so i
	// order is not id order) and s = "s" + k mod 5.
	const n = 200
	type node struct {
		i int64
		s string
	}
	g := graph.New()
	nodes := make([]node, n)
	for k := range nodes {
		nodes[k] = node{i: int64(k * 37 % n), s: fmt.Sprintf("s%d", k%5)}
		g.CreateNode([]string{"P"}, value.Map{"i": value.Int(nodes[k].i), "s": value.String(nodes[k].s)})
	}
	sorted := func(cmp func(a, b node) int) []node {
		out := slices.Clone(nodes)
		slices.SortStableFunc(out, cmp)
		return out
	}

	// An alias shadowing an input variable: ORDER BY n is the alias.
	var shadow [][]int64
	for _, nd := range sorted(func(a, b node) int { return int(a.i - b.i) }) {
		shadow = append(shadow, []int64{nd.i})
	}
	// An input variable that is not projected, beside an alias.
	var hidden [][]int64
	for _, nd := range sorted(func(a, b node) int {
		if c := strings.Compare(a.s, b.s); c != 0 {
			return c
		}
		return int(b.i - a.i)
	}) {
		hidden = append(hidden, []int64{nd.i})
	}
	// WITH … ORDER BY … SKIP … LIMIT, then another clause: the input
	// variable n must not reach the UNWIND or RETURN *.
	var window [][]int64
	for _, nd := range sorted(func(a, b node) int {
		if c := strings.Compare(b.s, a.s); c != 0 {
			return c
		}
		return int(a.i - b.i)
	})[5:25] {
		window = append(window, []int64{nd.i, nd.i}, []int64{nd.i, nd.i + 1})
	}

	cases := []struct {
		q    string
		cols []string
		want [][]int64
	}{
		{`MATCH (n:P) RETURN n.i AS n ORDER BY n`, []string{"n"}, shadow},
		{`MATCH (n:P) RETURN n.i AS i ORDER BY n.s, i DESC`, []string{"i"}, hidden},
		{`MATCH (n:P) WITH n.i AS i ORDER BY n.s DESC, i SKIP 5 LIMIT 20 UNWIND [i, i + 1] AS j RETURN *`, []string{"i", "j"}, window},
	}
	arms := []struct {
		name   string
		cfg    Config
		spills bool
	}{
		{"serial", Config{Parallelism: 1}, false},
		{"par2", Config{Parallelism: 2}, false},
		{"spill", Config{Parallelism: 1, MemoryBudget: 1 << 10}, true},
		{"par2-spill", Config{Parallelism: 2, MemoryBudget: 1 << 10}, true},
	}
	for _, c := range cases {
		stmt, err := parser.Parse(c.q)
		if err != nil {
			t.Fatal(err)
		}
		for _, arm := range arms {
			var root plan.Operator
			cfg := arm.cfg
			cfg.Dialect = DialectRevised
			cfg.onPlan = func(op plan.Operator) { root = op }
			res, err := NewEngine(cfg).ExecuteStatement(g, stmt, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", arm.name, c.q, err)
			}
			if got := res.Table.Columns(); !slices.Equal(got, c.cols) {
				t.Fatalf("%s %s: columns %v, want %v", arm.name, c.q, got, c.cols)
			}
			if res.Table.Len() != len(c.want) {
				t.Fatalf("%s %s: %d rows, want %d", arm.name, c.q, res.Table.Len(), len(c.want))
			}
			for r, want := range c.want {
				for j, w := range want {
					if got := res.Table.Get(r, c.cols[j]); got != value.Int(w) {
						t.Fatalf("%s %s: row %d column %s = %v, want %d", arm.name, c.q, r, c.cols[j], got, w)
					}
				}
			}
			if arm.cfg.Parallelism > 1 && !hasExchange(root) {
				t.Errorf("%s %s: no Exchange in the plan:\n%s", arm.name, c.q, plan.Explain(root))
			}
			spilled := false
			for _, s := range collectSpillers(root) {
				spilled = spilled || s.SpillRuns() > 0
			}
			if spilled != arm.spills {
				t.Errorf("%s %s: spilled = %v, want %v:\n%s", arm.name, c.q, spilled, arm.spills, plan.Explain(root))
			}
		}
	}
	if live := plan.SpillFilesLive(); live != 0 {
		t.Fatalf("%d spill files still live", live)
	}
}
