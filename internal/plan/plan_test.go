package plan

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/table"
	"repro/internal/value"
)

// countingScan is a source operator that records how many rows it has
// handed out — the direct observation that LIMIT-style early exit
// prunes upstream work.
type countingScan struct {
	n     int
	col   string
	pulls int
}

func (o *countingScan) Columns() []string { return []string{o.col} }
func (o *countingScan) NextBatch(max int) (*Batch, bool, error) {
	k := min(clampMax(max), o.n-o.pulls)
	if k <= 0 {
		return nil, false, nil
	}
	b := NewBatch(o.Columns(), k)
	for i := 0; i < k; i++ {
		b.vals[0] = append(b.vals[0], value.Int(int64(o.pulls+i)))
	}
	b.n = k
	o.pulls += k
	return b, true, nil
}
func (o *countingScan) Close()               {}
func (o *countingScan) Name() string         { return "CountingScan" }
func (o *countingScan) Children() []Operator { return nil }

func intLit(n int64) ast.Expr { return &ast.Literal{Value: n} }

// testNames lays out the tests' rows. x is slot 0, the zero Slot of
// the tests' hand-built Variables, which all name x.
var testNames = ast.Names{"x": 0, "y": 1, "n": 2, "k": 3, "row": 4}

// testEv returns an evaluator over testNames and graph g (nil: none).
func testEv(g *graph.Graph) *expr.Evaluator { return &expr.Evaluator{Graph: g, Names: testNames} }

func TestLimitPullsExactlyK(t *testing.T) {
	src := &countingScan{n: 1000, col: "x"}
	lim := NewLimit(src, intLit(5), testEv(nil))
	out, err := Collect(lim)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 5 {
		t.Fatalf("rows = %d, want 5", out.Len())
	}
	if src.pulls != 5 {
		t.Errorf("source pulled %d times, want exactly 5 (early exit)", src.pulls)
	}
}

func TestLimitZeroPullsNothing(t *testing.T) {
	src := &countingScan{n: 1000, col: "x"}
	out, err := Collect(NewLimit(src, intLit(0), testEv(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("rows = %d, want 0", out.Len())
	}
	if src.pulls != 0 {
		t.Errorf("source pulled %d times, want 0", src.pulls)
	}
}

func TestSkipLimitComposition(t *testing.T) {
	src := &countingScan{n: 100, col: "x"}
	ev := testEv(nil)
	root := NewLimit(NewSkip(src, intLit(10), ev), intLit(3), ev)
	out, err := Collect(root)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("rows = %d, want 3", out.Len())
	}
	if got := out.Get(0, "x"); got != value.Int(10) {
		t.Errorf("first row = %v, want 10", got)
	}
	if src.pulls != 13 {
		t.Errorf("source pulled %d times, want 13 (skip 10 + take 3)", src.pulls)
	}
}

func TestDistinctStreamsFirstOccurrences(t *testing.T) {
	tbl := table.New("x")
	for _, v := range []int64{3, 1, 3, 2, 1} {
		tbl.AppendRow(value.Int(v))
	}
	out, err := Collect(NewDistinct(NewTableScan(tbl)))
	if err != nil {
		t.Fatal(err)
	}
	var got []value.Value
	for i := 0; i < out.Len(); i++ {
		got = append(got, out.Get(i, "x"))
	}
	want := []value.Value{value.Int(3), value.Int(1), value.Int(2)}
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFilterAndProject(t *testing.T) {
	src := &countingScan{n: 10, col: "x"}
	ev := testEv(nil)
	pred := &ast.BinaryOp{Op: ast.OpGeq, Left: &ast.Variable{Name: "x"}, Right: intLit(8)}
	proj := NewProject(NewFilter(src, pred, ev),
		[]Item{{Expr: &ast.BinaryOp{Op: ast.OpMul, Left: &ast.Variable{Name: "x"}, Right: intLit(2)}, Alias: "y"}},
		[]string{"y"}, ev)
	out, err := Collect(proj)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 || out.Get(0, "y") != value.Int(16) || out.Get(1, "y") != value.Int(18) {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestUnionSequencesMembers(t *testing.T) {
	a := &countingScan{n: 2, col: "x"}
	b := &countingScan{n: 2, col: "x"}
	out, err := Collect(NewUnion([]Operator{a, b}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Fatalf("rows = %d, want 4", out.Len())
	}
	if a.pulls != 2 || b.pulls != 2 {
		t.Errorf("member rows = %d, %d; want 2, 2", a.pulls, b.pulls)
	}
}

func TestExplainRendersTree(t *testing.T) {
	src := &countingScan{n: 10, col: "x"}
	ev := testEv(nil)
	root := NewLimit(NewDistinct(src), intLit(3), ev)
	out := Explain(root)
	lines := strings.Split(out, "\n")
	if len(lines) != 3 {
		t.Fatalf("explain lines = %d, want 3:\n%s", len(lines), out)
	}
	if lines[0] != "Limit(3)" || !strings.Contains(lines[1], "Distinct") || !strings.Contains(lines[2], "CountingScan") {
		t.Errorf("unexpected explain output:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "└─ ") || !strings.HasPrefix(lines[2], "   └─ ") {
		t.Errorf("unexpected indentation:\n%s", out)
	}
}

func TestCollectClosesAfterError(t *testing.T) {
	src := &countingScan{n: 10, col: "x"}
	ev := testEv(nil)
	// LIMIT 'x' is a type error surfaced on first pull.
	_, err := Collect(NewLimit(src, &ast.Literal{Value: "x"}, ev))
	if err == nil || !strings.Contains(err.Error(), "LIMIT expects a non-negative integer") {
		t.Fatalf("err = %v", err)
	}
}
