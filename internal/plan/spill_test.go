package plan

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/parser"
	"repro/internal/table"
	"repro/internal/value"
)

// ---------------------------------------------------------------------
// Operator lifecycle
// ---------------------------------------------------------------------

func TestOperatorCloseIdempotentAndBeforeOpen(t *testing.T) {
	// Close before Open must be a no-op (EXPLAIN closes plans it never
	// opened), and double Close must not panic or double-release.
	tbl := table.New("x")
	tbl.AppendRow(value.Int(1))
	o := NewDistinct(NewTableScan(tbl))
	o.Close()
	o.Close()
	// A fresh operator still works after the above pattern on another.
	o2 := NewDistinct(NewTableScan(tbl))
	out, err := Collect(o2)
	if err != nil || out.Len() != 1 {
		t.Fatalf("Collect = (%v rows, %v)", out.Len(), err)
	}
	o2.Close() // Collect already closed it; must stay idempotent.
}

// errAfter yields n good rows, then fails. It drives the
// cleanup-on-error paths of the spilling barriers.
type errAfter struct {
	n, i int
}

func (o *errAfter) Columns() []string { return []string{"x"} }
func (o *errAfter) NextBatch(max int) (*Batch, bool, error) {
	k := min(clampMax(max), o.n-o.i)
	if k <= 0 {
		return nil, false, fmt.Errorf("synthetic source failure")
	}
	b := NewBatch(o.Columns(), k)
	for i := 0; i < k; i++ {
		o.i++
		b.vals[0] = append(b.vals[0], value.Int(int64(o.i)))
	}
	b.n = k
	return b, true, nil
}
func (o *errAfter) Close()               {}
func (o *errAfter) Name() string         { return "ErrAfter" }
func (o *errAfter) Children() []Operator { return nil }

// ---------------------------------------------------------------------
// Spill codec
// ---------------------------------------------------------------------

func TestSpillCodecRoundTripsAllKinds(t *testing.T) {
	vals := []value.Value{
		value.NullValue,
		value.Bool(true),
		value.Bool(false),
		value.Int(-9_000_000_000),
		value.Int(0),
		value.Float(3.5),
		value.Float(math.NaN()),
		value.Float(math.Inf(-1)),
		value.String(""),
		value.String("héllo\x00world"),
		value.Node{ID: 42},
		value.Rel{ID: 7},
		value.Path{Nodes: []int64{1, 2, 3}, Rels: []int64{10, 11}},
		value.List{value.Int(1), value.List{value.String("nested")}, value.NullValue},
		value.Map{"a": value.Int(1), "b": value.Map{"c": value.Float(math.NaN())}},
	}
	row := spillRow{seq: 123, key: "k\x00ey", keys: vals[:3], vals: vals}

	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeSpillRow(w, row); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readSpillRow(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.seq != row.seq || got.key != row.key {
		t.Fatalf("seq/key = %d/%q, want %d/%q", got.seq, got.key, row.seq, row.key)
	}
	if len(got.keys) != len(row.keys) || len(got.vals) != len(row.vals) {
		t.Fatalf("lengths = %d/%d, want %d/%d", len(got.keys), len(got.vals), len(row.keys), len(row.vals))
	}
	for i, want := range vals {
		if !sameValue(got.vals[i], want) {
			t.Errorf("vals[%d] = %#v, want %#v", i, got.vals[i], want)
		}
	}
}

// sameValue compares values treating NaN as equal to itself (the codec
// must round-trip NaN by bit pattern, which == cannot check).
func sameValue(a, b value.Value) bool {
	if fa, ok := a.(value.Float); ok {
		fb, ok := b.(value.Float)
		return ok && math.Float64bits(float64(fa)) == math.Float64bits(float64(fb))
	}
	switch xa := a.(type) {
	case value.List:
		xb, ok := b.(value.List)
		if !ok || len(xa) != len(xb) {
			return false
		}
		for i := range xa {
			if !sameValue(xa[i], xb[i]) {
				return false
			}
		}
		return true
	case value.Map:
		xb, ok := b.(value.Map)
		if !ok || len(xa) != len(xb) {
			return false
		}
		for k, va := range xa {
			vb, ok := xb[k]
			if !ok || !sameValue(va, vb) {
				return false
			}
		}
		return true
	case value.Path:
		xb, ok := b.(value.Path)
		if !ok || len(xa.Nodes) != len(xb.Nodes) || len(xa.Rels) != len(xb.Rels) {
			return false
		}
		for i := range xa.Nodes {
			if xa.Nodes[i] != xb.Nodes[i] {
				return false
			}
		}
		for i := range xa.Rels {
			if xa.Rels[i] != xb.Rels[i] {
				return false
			}
		}
		return true
	}
	return a == b
}

// ---------------------------------------------------------------------
// Forced-spill equivalence: barriers under a tiny budget must produce
// byte-identical output to the unlimited in-memory path.
// ---------------------------------------------------------------------

// sortInput builds a table with repeated keys (x) and a unique payload
// (y), so tie order is observable.
func sortInput(n int) *table.Table {
	tbl := table.New("x", "y")
	for i := 0; i < n; i++ {
		tbl.AppendRow(value.Int(int64((n-i)%17)), value.Int(int64(i)))
	}
	return tbl
}

func collectSorted(t *testing.T, n int, bud *budget) (*table.Table, *Sort) {
	t.Helper()
	ev := testEv(nil)
	s := NewSort(NewTableScan(sortInput(n)),
		[]*ast.SortItem{{Expr: &ast.Variable{Name: "x"}}}, []string{"x", "y"}, ev)
	s.budget = bud
	out, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	return out, s
}

func TestExternalSortMatchesInMemoryAndKeepsTieOrder(t *testing.T) {
	const n = 500
	want, s0 := collectSorted(t, n, nil)
	if s0.SpillRuns() != 0 {
		t.Fatalf("unlimited sort spilled %d runs", s0.SpillRuns())
	}
	got, s1 := collectSorted(t, n, newBudget(1))
	if s1.SpillRuns() == 0 {
		t.Fatal("budget=1 sort did not spill")
	}
	if live := SpillFilesLive(); live != 0 {
		t.Fatalf("%d spill files still live after Collect", live)
	}
	if got.Len() != want.Len() {
		t.Fatalf("rows = %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Get(i, "x") != want.Get(i, "x") || got.Get(i, "y") != want.Get(i, "y") {
			t.Fatalf("row %d = (%v,%v), want (%v,%v)", i,
				got.Get(i, "x"), got.Get(i, "y"), want.Get(i, "x"), want.Get(i, "y"))
		}
	}
	// Stability spot check: within equal keys, payloads keep input order.
	for i := 1; i < got.Len(); i++ {
		if got.Get(i, "x") == got.Get(i-1, "x") && got.Get(i, "y").(value.Int) < got.Get(i-1, "y").(value.Int) {
			t.Fatalf("tie order violated at row %d", i)
		}
	}
}

func TestSpillingDistinctKeepsFirstOccurrenceOrder(t *testing.T) {
	tbl := table.New("x")
	const n = 600
	for i := 0; i < n; i++ {
		tbl.AppendRow(value.Int(int64((i * 7) % 97)))
	}
	want, err := Collect(NewDistinct(NewTableScan(tbl)))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDistinct(NewTableScan(tbl))
	d.budget = newBudget(1)
	got, err := Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	if d.SpillRuns() == 0 {
		t.Fatal("budget=1 distinct did not spill")
	}
	if live := SpillFilesLive(); live != 0 {
		t.Fatalf("%d spill files still live after Collect", live)
	}
	if got.Len() != want.Len() {
		t.Fatalf("rows = %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Get(i, "x") != want.Get(i, "x") {
			t.Fatalf("row %d = %v, want %v (first-occurrence order)", i, got.Get(i, "x"), want.Get(i, "x"))
		}
	}
}

// TestSpillingAggregateMatchesInMemory requires a spilled aggregation,
// whose deferred groups are finalized to disk and merged back, to equal
// the unbudgeted run bit for bit: group order, floats (NaN included) and
// every value kind its aggregates return, at a budget that admits one
// group and at one that admits a few.
func TestSpillingAggregateMatchesInMemory(t *testing.T) {
	tbl := table.New("x", "nd", "rl", "pt", "mp", "f", "d", "mx")
	const n = 800
	for i := range int64(n) {
		mixed := []value.Value{value.Int(i % 9), value.String(fmt.Sprint(i % 11)), value.Float(float64(i%13) / 3), value.Bool(i%2 == 0), value.NullValue}[i%5]
		tbl.AppendRow(value.Int(i%131), value.Node{ID: i % 50}, value.Rel{ID: i},
			value.Path{Nodes: []int64{i, i + 1}, Rels: []int64{i}},
			value.Map{"nan": value.Float(math.NaN()), "i": value.Int(i)},
			value.Float(float64(i)/7), value.Int(i%5), mixed)
	}
	names := ast.Names{}
	var items []Item
	var cols []string
	for _, src := range []string{
		"x", "count(*)", "collect(nd)", "collect(rl)", "collect(pt)", "collect(mp)",
		"avg(f)", "stdev(f)", "count(DISTINCT d)", "min(mx)",
	} {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		names.Expr(e)
		items = append(items, Item{Expr: e, Alias: fmt.Sprint("c", len(cols))})
		cols = append(cols, fmt.Sprint("c", len(cols)))
	}
	ev := &expr.Evaluator{Names: names}
	want, err := Collect(NewAggregate(NewTableScan(tbl.Clone()), items, cols, ev))
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int64{1, 4 << 10} {
		a := NewAggregate(NewTableScan(tbl.Clone()), items, cols, ev)
		a.budget = newBudget(limit)
		got, err := Collect(a)
		if err != nil {
			t.Fatal(err)
		}
		if a.SpillRuns() == 0 {
			t.Fatalf("budget=%d aggregate did not spill", limit)
		}
		if live := SpillFilesLive(); live != 0 {
			t.Fatalf("budget=%d: %d spill files still live after Collect", limit, live)
		}
		if got.Len() != want.Len() {
			t.Fatalf("budget=%d: groups = %d, want %d", limit, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			for _, c := range cols {
				if !sameValue(got.Get(i, c), want.Get(i, c)) {
					t.Fatalf("budget=%d: group %d column %s (%s) = %#v, want %#v", limit, i, c, items[slices.Index(cols, c)].Expr, got.Get(i, c), want.Get(i, c))
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Temp-file cleanup on abnormal paths
// ---------------------------------------------------------------------

func TestSpillFilesFreedOnChildError(t *testing.T) {
	ev := testEv(nil)
	// Enough rows to force several runs before the child fails.
	s := NewSort(&errAfter{n: 300}, []*ast.SortItem{{Expr: &ast.Variable{Name: "x"}}}, []string{"x"}, ev)
	s.budget = newBudget(1)
	if _, err := Collect(s); err == nil || !strings.Contains(err.Error(), "synthetic source failure") {
		t.Fatalf("Collect err = %v, want synthetic source failure", err)
	}
	if live := SpillFilesLive(); live != 0 {
		t.Fatalf("%d spill files still live after child error", live)
	}
}

func TestSpillFilesFreedOnEarlyLimitClose(t *testing.T) {
	ev := testEv(nil)
	s := NewSort(NewTableScan(sortInput(500)),
		[]*ast.SortItem{{Expr: &ast.Variable{Name: "x"}}}, []string{"x", "y"}, ev)
	s.budget = newBudget(1)
	lim := NewLimit(s, &ast.Literal{Value: int64(3)}, ev)
	out, err := Collect(lim)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("rows = %d, want 3", out.Len())
	}
	if s.SpillRuns() == 0 {
		t.Fatal("sort did not spill (budget not honored?)")
	}
	// LIMIT closed the plan long before the merge was drained; the
	// run files must be released anyway.
	if live := SpillFilesLive(); live != 0 {
		t.Fatalf("%d spill files still live after early LIMIT close", live)
	}
}

// ---------------------------------------------------------------------
// Native batch sources
// ---------------------------------------------------------------------

// TestUnwindNextBatchRespectsMax drives Unwind's native batch path: a
// 3-element list per input row over 10 input rows is 30 output rows,
// which must arrive in batches of at most max with input pulled only
// as needed (an early-exiting consumer must not force extra expansion).
func TestUnwindNextBatchRespectsMax(t *testing.T) {
	src := &countingScan{n: 10, col: "x"}
	list := &ast.ListLit{Elems: []ast.Expr{intLit(1), intLit(2), intLit(3)}}
	u := NewUnwind(src, &ast.UnwindClause{Expr: list, Var: "k"}, testEv(nil))
	defer u.Close()
	b, ok, err := u.NextBatch(4)
	if err != nil || !ok || b.Len() != 4 {
		t.Fatalf("batch = (%v, %v, %v), want 4 rows", b, ok, err)
	}
	if got := b.Value(0, 1); got != value.Int(1) {
		t.Fatalf("first unwound element = %v, want 1", got)
	}
	total := b.Len()
	for {
		b, ok, err = u.NextBatch(7)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if b.Len() > 7 {
			t.Fatalf("batch of %d rows exceeds max=7", b.Len())
		}
		total += b.Len()
	}
	if total != 30 {
		t.Fatalf("total rows = %d, want 30", total)
	}
	if _, ok, _ := u.NextBatch(4); ok {
		t.Fatal("Unwind yielded a batch past end of input")
	}
}

// TestUnwindNextBatchEarlyExit confirms the native path pulls no more
// input rows than the consumer's demand requires.
func TestUnwindNextBatchEarlyExit(t *testing.T) {
	src := &countingScan{n: 1000, col: "x"}
	list := &ast.ListLit{Elems: []ast.Expr{intLit(1), intLit(2)}}
	u := NewUnwind(src, &ast.UnwindClause{Expr: list, Var: "k"}, testEv(nil))
	lim := NewLimit(u, intLit(6), testEv(nil))
	out, err := Collect(lim)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 6 {
		t.Fatalf("rows = %d, want 6", out.Len())
	}
	// 6 output rows need only 3 input rows; the batched pull may fetch
	// up to one batch of the consumer's max, never the whole input.
	if src.pulls > 8 {
		t.Errorf("source pulled %d rows for LIMIT 6 over a 2-element unwind", src.pulls)
	}
}

func TestExplainShowsBarrierStatsAfterRun(t *testing.T) {
	d := NewDistinct(NewTableScan(sortInput(100)))
	d.budget = newBudget(1)
	if _, err := Collect(d); err != nil {
		t.Fatal(err)
	}
	out := Explain(d)
	if !strings.Contains(out, "rows=") || !strings.Contains(out, "spill-runs=") {
		t.Fatalf("post-run explain lacks counters:\n%s", out)
	}
}

// ---------------------------------------------------------------------
// Close cascades once
// ---------------------------------------------------------------------

// closeCounter is a countingScan that counts the Close calls it gets.
type closeCounter struct {
	countingScan
	closes int
}

func (o *closeCounter) Close() { o.closes++ }

// TestOperatorClosesChildOnce runs every single-child operator over a
// counting child (Collect closes it), then closes it again: the child
// must see exactly one Close.
func TestOperatorClosesChildOnce(t *testing.T) {
	ev := testEv(graph.New())
	x := &ast.Variable{Name: "x"}
	csvPath := writeCSV(t, "1\n2\n")
	items := []Item{{Expr: x, Alias: "x"}}
	pattern := []*ast.PatternPart{{Nodes: []*ast.NodePattern{{Var: "n", Slot: testNames["n"]}}}}
	ops := map[string]func(Operator) Operator{
		"Match": func(c Operator) Operator {
			return NewMatch(c, &ast.MatchClause{Pattern: pattern}, func(ev *expr.Evaluator, _ []*ast.PatternPart, bound []int) *match.Matcher {
				return &match.Matcher{Graph: ev.Graph, Ev: ev, Bound: bound}
			}, ev, []string{"n"})
		},
		"Unwind": func(c Operator) Operator {
			return NewUnwind(c, &ast.UnwindClause{Expr: &ast.ListLit{Elems: []ast.Expr{x}}, Var: "k"}, ev)
		},
		"LoadCSV": func(c Operator) Operator {
			return NewLoadCSV(c, &ast.LoadCSVClause{URL: &ast.Literal{Value: csvPath}, Var: "row"}, ev)
		},
		"Filter":   func(c Operator) Operator { return NewFilter(c, &ast.Literal{Value: true}, ev) },
		"Project":  func(c Operator) Operator { return NewProject(c, items, []string{"x"}, ev) },
		"Distinct": func(c Operator) Operator { return NewDistinct(c) },
		"Skip":     func(c Operator) Operator { return NewSkip(c, intLit(1), ev) },
		"Limit":    func(c Operator) Operator { return NewLimit(c, intLit(1), ev) },
		"Sort":     func(c Operator) Operator { return NewSort(c, []*ast.SortItem{{Expr: x}}, c.Columns(), ev) },
		"Aggregate": func(c Operator) Operator {
			return NewAggregate(c, []Item{{Expr: &ast.FuncCall{Name: "count", Star: true}, Alias: "n"}}, []string{"n"}, ev)
		},
		"Update": func(c Operator) Operator {
			return NewApply(c, "SET", []string{"x"}, func(in *Batch) (*Batch, error) { return in, nil })
		},
		"Discard": func(c Operator) Operator { return NewDiscard(c) },
	}
	for name, build := range ops {
		src := &closeCounter{countingScan: countingScan{n: 3, col: "x"}}
		op := build(src)
		if _, err := Collect(op); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		op.Close()
		if src.closes != 1 {
			t.Errorf("%s closed its child %d times, want 1", name, src.closes)
		}
	}
}

// TestBarrierCloseMidSpillFreesFiles closes each spilling barrier while
// it still holds spill state, then closes it again. Under LIMIT 1 the
// Sort is part-way through its merge and the Distinct, whose first row
// is resident, still has its partitions open; one Aggregate's intake
// fails mid-spill. Under LIMIT 5, more rows than the one admitted key
// yields and fewer than the output holds, a Distinct and an Aggregate
// are part-way through replaying their merged runs. No spill file may
// outlive the first Close, and the budget must be returned in full.
func TestBarrierCloseMidSpillFreesFiles(t *testing.T) {
	ev := testEv(nil)
	x := &ast.Variable{Name: "x"}
	s := NewSort(NewTableScan(sortInput(500)), []*ast.SortItem{{Expr: x}}, []string{"x", "y"}, ev)
	d := NewDistinct(NewTableScan(sortInput(500)))
	a := NewAggregate(&errAfter{n: 300}, []Item{{Expr: x, Alias: "x"}}, []string{"x"}, ev)
	dm := NewDistinct(NewTableScan(sortInput(500)))
	am := NewAggregate(NewTableScan(sortInput(500)), []Item{{Expr: x, Alias: "x"}}, []string{"x"}, ev)
	cases := []struct {
		name  string
		op    Operator
		acct  *memAccount
		limit int64
	}{
		{"Sort", s, &s.memAccount, 1},
		{"Distinct", d, &d.memAccount, 1},
		{"Aggregate", a, &a.memAccount, 1},
		{"Distinct/merge", dm, &dm.memAccount, 5},
		{"Aggregate/merge", am, &am.memAccount, 5},
	}
	for _, c := range cases {
		c.acct.budget = newBudget(1)
		out, err := Collect(NewLimit(c.op, intLit(c.limit), ev))
		if c.op == a {
			if err == nil || !strings.Contains(err.Error(), "synthetic source failure") {
				t.Fatalf("Aggregate err = %v, want synthetic source failure", err)
			}
		} else if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		} else if out.Len() != int(c.limit) {
			t.Fatalf("%s: %d rows, want %d", c.name, out.Len(), c.limit)
		}
		if live := SpillFilesLive(); live != 0 {
			t.Fatalf("%s: %d spill files still live after Close", c.name, live)
		}
		if used := c.acct.budget.used.Load(); used != 0 {
			t.Fatalf("%s: budget holds %d bytes after Close", c.name, used)
		}
		c.op.Close()
		if live := SpillFilesLive(); live != 0 {
			t.Fatalf("%s: %d spill files live after a second Close", c.name, live)
		}
	}
	if s.SpillRuns() == 0 || !d.spill.opened || !a.spill.opened {
		t.Fatalf("a barrier did not spill: sort runs %d, distinct %v, aggregate %v", s.SpillRuns(), d.spill.opened, a.spill.opened)
	}
	// The merge cases settled every partition before their LIMIT was met.
	if dm.SpillRuns() != spillParts || am.SpillRuns() != spillParts {
		t.Fatalf("merge cases settled %d and %d partitions, want %d", dm.SpillRuns(), am.SpillRuns(), spillParts)
	}
}
