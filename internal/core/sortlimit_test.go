package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/value"
)

// TestSortLimitIsSliceOfSort pins ORDER BY … SKIP s LIMIT l to its
// definition: the unbounded ORDER BY's rows [s, s+l), row for row. The
// driving table is random, with heavy key ties, nulls, NaN, and
// integers, floats, strings and booleans mixed in one column, so the
// intake-sequence tie-break and the cross-type order decide much of the
// output. The reference order is the serial unbounded ORDER BY's,
// which every arm must reproduce too. The counts cover 0, 1, 20, 100,
// more than the input, the largest integer, and pairs whose sum
// overflows. Each statement runs serially and at degree 2, each with
// and without a spill-forcing budget.
func TestSortLimitIsSliceOfSort(t *testing.T) {
	const n = 2600 // enough rows for scan morsels at degree 2
	keyPool := []value.Value{
		value.NullValue, value.Int(0), value.Int(1), value.Int(2), value.Float(1),
		value.Float(1.5), value.Float(math.NaN()), value.String("a"), value.String("b"),
		value.Bool(false), value.Bool(true),
	}
	counts := [][2]int64{{math.MaxInt64, 20}}
	for _, s := range []int64{0, 1, 7} {
		for _, l := range []int64{0, 1, 20, 100, n + 5, math.MaxInt64} {
			counts = append(counts, [2]int64{s, l})
		}
	}
	orders := []string{"k", "k DESC", "w DESC, k", "w, k DESC"}
	arms := []struct {
		name string
		cfg  Config
	}{
		{"serial", Config{Parallelism: 1}},
		{"par2", Config{Parallelism: 2}},
		{"spill", Config{Parallelism: 1, MemoryBudget: 1 << 12}},
		{"par2-spill", Config{Parallelism: 2, MemoryBudget: 1 << 12}},
	}
	g := graph.New()
	rng := rand.New(rand.NewSource(1))
	t0 := table.New("k", "w", "v")
	for i := range n {
		w := value.Value(value.Int(rng.Int63n(3)))
		if rng.Intn(10) == 0 {
			w = value.NullValue
		}
		t0.AppendRow(keyPool[rng.Intn(len(keyPool))], w, value.Int(int64(i)))
	}
	for _, order := range orders {
		full, err := parser.Parse(fmt.Sprintf(`RETURN k, w, v ORDER BY %s`, order))
		if err != nil {
			t.Fatal(err)
		}
		sliced, err := parser.Parse(fmt.Sprintf(`RETURN k, w, v ORDER BY %s SKIP $s LIMIT $l`, order))
		if err != nil {
			t.Fatal(err)
		}
		var wantV []value.Value // the serial unbounded order
		for _, arm := range arms {
			var root plan.Operator
			cfg := arm.cfg
			cfg.Dialect = DialectRevised
			cfg.onPlan = func(op plan.Operator) { root = op }
			eng := NewEngine(cfg)
			all, err := eng.ExecuteWithTable(g, full, nil, t0)
			if err != nil {
				t.Fatalf("%s %s: %v", arm.name, order, err)
			}
			if wantV == nil {
				wantV = all.Table.Column(2)
			}
			if !slices.Equal(all.Table.Column(2), wantV) {
				t.Fatalf("%s ORDER BY %s: the unbounded order differs from the serial one", arm.name, order)
			}
			if arm.cfg.Parallelism > 1 && !hasExchange(root) {
				t.Fatalf("%s: no Exchange in the plan:\n%s", arm.name, plan.Explain(root))
			}
			if arm.cfg.MemoryBudget > 0 && !sortSpilled(root) {
				t.Fatalf("%s: the unbounded Sort did not spill:\n%s", arm.name, plan.Explain(root))
			}
			for _, c := range counts {
				s, l := c[0], c[1]
				params := map[string]value.Value{"s": value.Int(s), "l": value.Int(l)}
				got, err := eng.ExecuteWithTable(g, sliced, params, t0)
				if err != nil {
					t.Fatalf("%s ORDER BY %s SKIP %d LIMIT %d: %v", arm.name, order, s, l, err)
				}
				lo := int(min(s, n))
				hi := lo + int(min(l, int64(n-lo)))
				gotV := got.Table.Column(2)
				if len(gotV) != hi-lo {
					t.Fatalf("%s ORDER BY %s SKIP %d LIMIT %d: %d rows, want %d", arm.name, order, s, l, len(gotV), hi-lo)
				}
				for r, v := range gotV {
					if v != wantV[lo+r] {
						t.Fatalf("%s ORDER BY %s SKIP %d LIMIT %d: row %d has v = %v, want %v", arm.name, order, s, l, r, v, wantV[lo+r])
					}
				}
			}
		}
	}
	if live := plan.SpillFilesLive(); live != 0 {
		t.Fatalf("%d spill files still live", live)
	}
}

// sortSpilled reports whether a Sort in the plan spilled a run.
func sortSpilled(root plan.Operator) bool {
	for _, s := range collectSpillers(root) {
		if op, ok := s.(*plan.Sort); ok && op.SpillRuns() > 0 {
			return true
		}
	}
	return false
}
