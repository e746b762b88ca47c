package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/value"
	"repro/internal/workload"
)

// The property oracles specify the engine by what every answer must
// satisfy rather than by a second interpreter. A seeded generator
// (workload.Statements) writes random statements in both dialects over
// a small random graph, and four tests check them:
//
//   - TestOracleConfigurationDifferential: parallelism, the memory
//     budget and the planner never change an answer;
//   - TestOracleMetamorphicPairs: conjunct order, WHERE vs WITH * WHERE,
//     and UNWIND of a list vs the same rows as a driving table give
//     equal answers;
//   - TestClauseCompositionality: a statement equals its prefix followed
//     by its suffix on the prefix's graph and table (Section 8.2);
//   - TestOracleRevisedOrderIndependence: permuting the driving table of
//     a revised update never changes its result up to isomorphism
//     (Section 7).
//
// Every failure names the seed and the statement; NewStatements(seed,
// dialect == DialectRevised) replays the generator.

// oracleSeeds is how many seeds each oracle runs per dialect.
const oracleSeeds = 50

// oracleCase is one seed in one dialect: the generator, already past
// Setup, and the graph Setup built.
type oracleCase struct {
	seed int64
	d    Dialect
	gen  *workload.Statements
	base *graph.Graph
}

// genStmt is a generated statement with its driving table (nil means
// the unit table).
type genStmt struct {
	src string
	t0  *table.Table
}

// forEachOracleCase runs fn for every seed in each of the dialects.
func forEachOracleCase(t *testing.T, dialects []Dialect, fn func(c *oracleCase)) {
	t.Helper()
	for _, d := range dialects {
		for seed := int64(1); seed <= oracleSeeds; seed++ {
			c := &oracleCase{seed: seed, d: d, gen: workload.NewStatements(seed, d == DialectRevised), base: graph.New()}
			eng := NewEngine(Config{Dialect: d})
			for _, src := range c.gen.Setup() {
				if _, err := eng.ExecuteStatement(c.base, c.parse(t, src), nil); err != nil {
					t.Fatalf("seed %d, %s: setup %s: %v", seed, d, src, err)
				}
			}
			fn(c)
		}
	}
	if live := plan.SpillFilesLive(); live != 0 {
		t.Errorf("%d spill files still live", live)
	}
}

func (c *oracleCase) parse(t *testing.T, src string) *ast.Statement {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("seed %d, %s: generated an unparseable statement %s: %v", c.seed, c.d, src, err)
	}
	return stmt
}

// statements draws the case's mix: reads and updates over the unit
// table, and table updates over a generated driving table.
func (c *oracleCase) statements() []genStmt {
	var out []genStmt
	for i := 0; i < 6; i++ {
		out = append(out, genStmt{src: c.gen.Read()})
	}
	for i := 0; i < 4; i++ {
		out = append(out, genStmt{src: c.gen.Update()})
	}
	for i := 0; i < 3; i++ {
		tbl := c.gen.Table("k", "v")
		out = append(out, genStmt{src: c.gen.TableUpdate("k", "v"), t0: tbl})
	}
	return out
}

// run executes stmt under cfg (in the case's dialect) on a clone of the
// base graph and returns the answer rendered with rows in order and as
// a multiset.
func (c *oracleCase) run(cfg Config, stmt *ast.Statement, params map[string]value.Value, t0 *table.Table) (exact, multiset string) {
	cfg.Dialect = c.d
	g := c.base.Clone()
	if t0 != nil {
		t0 = t0.Clone()
	}
	res, err := NewEngine(cfg).ExecuteWithTable(g, stmt, params, t0)
	return answers(res, g, err)
}

// answers renders an execution for comparison: the error text, or the
// table, the update stats and a hash of the final graph — once with the
// rows in order and once as a multiset. A multiset answer ignores row
// order, and so it also ignores which conflicting pair a SET conflict
// names first.
func answers(res *Result, g *graph.Graph, err error) (exact, multiset string) {
	if err != nil {
		exact, multiset = "error: "+err.Error(), "error: "+err.Error()
		var conflict *graph.ConflictError
		if errors.As(err, &conflict) {
			multiset = "error: conflicting SET"
		}
		return exact, multiset
	}
	rest := fmt.Sprintf("\nstats: %v\ngraph: %s", res.Stats, fingerprintHash(g))
	return renderTable(res) + rest, renderMultiset(res) + rest
}

// fingerprintHash is a short hash of the graph's id-independent
// fingerprint.
func fingerprintHash(g *graph.Graph) string {
	sum := sha256.Sum256([]byte(graph.Fingerprint(g)))
	return hex.EncodeToString(sum[:6])
}

func (c *oracleCase) fail(t *testing.T, what, stmt, got, want string) {
	t.Helper()
	t.Errorf("seed %d, %s, %s\nstatement: %s\ngot:\n%s\nwant:\n%s", c.seed, c.d, what, stmt, got, want)
}

// TestOracleConfigurationDifferential runs every generated statement at
// parallelism 1 (the reference), at parallelism 2, at parallelism 8
// with a spill-forcing budget of one byte, and under the naive planner.
// All arms must agree on the error text, the rendered table, the update
// stats and the final graph. The parallel arms must agree on row order
// too; the naive planner enumerates matches in another order, so its
// tables compare as multisets, and it skips legacy updates, whose
// result depends on record order by design (Section 4).
//
// At least a tenth of the generated statements must fail, so that the
// arms are compared on their error paths as well.
func TestOracleConfigurationDifferential(t *testing.T) {
	arms := []struct {
		name     string
		cfg      Config
		multiset bool
	}{
		{"par2", Config{Parallelism: 2}, false},
		{"par8-budget1", Config{Parallelism: 8, MemoryBudget: 1}, false},
		{"naive-planner", Config{Parallelism: 1, naivePlanner: true}, true},
	}
	// The parallel arms must actually run parallel plans.
	exchanges := 0
	arms[0].cfg.onPlan = func(root plan.Operator) {
		if hasExchange(root) {
			exchanges++
		}
	}
	total, failed := map[Dialect]int{}, map[Dialect]int{}
	forEachOracleCase(t, []Dialect{DialectCypher9, DialectRevised}, func(c *oracleCase) {
		for _, s := range c.statements() {
			stmt := c.parse(t, s.src)
			want, wantSet := c.run(Config{Parallelism: 1}, stmt, nil, s.t0)
			total[c.d]++
			if strings.HasPrefix(want, "error:") {
				failed[c.d]++
			}
			for _, arm := range arms {
				if arm.multiset && c.d == DialectCypher9 && stmt.Updating() {
					continue
				}
				got, gotSet := c.run(arm.cfg, stmt, nil, s.t0)
				w := want
				if arm.multiset {
					got, w = gotSet, wantSet
				}
				if got != w {
					c.fail(t, arm.name+" vs par1", s.src, got, w)
				}
			}
		}
	})
	for d, n := range total {
		t.Logf("%s: %d of %d generated statements failed", d, failed[d], n)
		if failed[d]*10 < n {
			t.Errorf("%s: %d of %d generated statements failed, want at least 10%%", d, failed[d], n)
		}
	}
	t.Logf("%d statements ran a parallel exchange at parallelism 2", exchanges)
	if exchanges == 0 {
		t.Error("no generated statement ran a parallel exchange")
	}
}

func hasExchange(op plan.Operator) bool {
	if _, ok := op.(*plan.Exchange); ok {
		return true
	}
	for _, c := range op.Children() {
		if hasExchange(c) {
			return true
		}
	}
	return false
}

// TestOracleMetamorphicPairs checks rewrites that preserve meaning
// (in the style of the "Proving Cypher Query Equivalence" rewrites):
//
//   - swapping the operands of every AND: WHERE atoms never fail, so
//     Kleene conjunction is commutative on them;
//   - MATCH … WHERE p vs MATCH … WITH * WHERE p, for non-optional
//     MATCH; the pushed-down and the filtered forms may enumerate in
//     different orders, so tables compare as multisets and legacy
//     updates, whose result depends on record order, are skipped;
//   - UNWIND $xs AS k … vs the same rows given as the driving table of
//     ExecuteWithTable, which must agree exactly.
func TestOracleMetamorphicPairs(t *testing.T) {
	var swaps, inlines int
	forEachOracleCase(t, []Dialect{DialectCypher9, DialectRevised}, func(c *oracleCase) {
		for _, s := range c.statements() {
			orig := c.parse(t, s.src)
			_, want := c.run(Config{}, orig, nil, s.t0)
			if swapped := c.parse(t, s.src); swapConjuncts(swapped) {
				swaps++
				if _, got := c.run(Config{}, swapped, nil, s.t0); got != want {
					c.fail(t, "AND operands swapped: "+swapped.String(), s.src, got, want)
				}
			}
			if c.d == DialectCypher9 && orig.Updating() {
				continue
			}
			if inlined := c.parse(t, s.src); inlineWhere(inlined) {
				inlines++
				if _, got := c.run(Config{}, inlined, nil, s.t0); got != want {
					c.fail(t, "WHERE moved to WITH *: "+inlined.String(), s.src, got, want)
				}
			}
		}
		for i := 0; i < 3; i++ {
			tbl, rest := c.gen.Table("k"), c.gen.TableUpdate("k")
			xs := make(value.List, tbl.Len())
			for r := range xs {
				xs[r] = tbl.Get(r, "k")
			}
			unwind := "UNWIND $xs AS k " + rest
			got, _ := c.run(Config{}, c.parse(t, unwind), map[string]value.Value{"xs": xs}, nil)
			if want, _ := c.run(Config{}, c.parse(t, rest), nil, tbl); got != want {
				c.fail(t, fmt.Sprintf("UNWIND $xs vs driving table, xs = %v", xs), unwind, got, want)
			}
		}
	})
	if swaps == 0 || inlines == 0 {
		t.Errorf("generator exercised %d conjunct swaps and %d WHERE inlinings, want some of each", swaps, inlines)
	}
}

// swapConjuncts swaps the operands of every AND in every WHERE of stmt
// and reports whether there was one.
func swapConjuncts(stmt *ast.Statement) bool {
	swapped := false
	swap := func(e ast.Expr) bool {
		if b, ok := e.(*ast.BinaryOp); ok && b.Op == ast.OpAnd {
			b.Left, b.Right = b.Right, b.Left
			swapped = true
		}
		return true
	}
	for _, q := range stmt.Queries {
		for _, c := range q.Clauses {
			switch cl := c.(type) {
			case *ast.MatchClause:
				ast.Walk(cl.Where, swap)
			case *ast.WithClause:
				ast.Walk(cl.Where, swap)
			}
		}
	}
	return swapped
}

// inlineWhere rewrites every non-optional MATCH … WHERE p of stmt to
// MATCH … WITH * WHERE p and reports whether there was one.
func inlineWhere(stmt *ast.Statement) bool {
	rewrote := false
	for _, q := range stmt.Queries {
		var out []ast.Clause
		for _, c := range q.Clauses {
			m, ok := c.(*ast.MatchClause)
			if !ok || m.Optional || m.Where == nil {
				out = append(out, c)
				continue
			}
			out = append(out, &ast.MatchClause{Pattern: m.Pattern},
				&ast.WithClause{Projection: ast.Projection{Star: true}, Where: m.Where})
			rewrote = true
		}
		q.Clauses = out
	}
	return rewrote
}

// TestOracleRevisedOrderIndependence is the paper's Section 7 theorem
// as a property: in the revised dialect, four permutations of the
// driving table of any generated SET, REMOVE, DELETE, CREATE, MERGE ALL
// or MERGE SAME statement give isomorphic graphs, equal update stats
// and equal output multisets, or all four fail. It generalises
// TestMergeStrategiesPermutationInvariant from MERGE to every update
// clause; the legacy counterexamples in paper_test.go show the
// property does not hold for Cypher 9.
func TestOracleRevisedOrderIndependence(t *testing.T) {
	forEachOracleCase(t, []Dialect{DialectRevised}, func(c *oracleCase) {
		for i := 0; i < 6; i++ {
			tbl, src := c.gen.Table("k", "v"), c.gen.TableUpdate("k", "v")
			stmt := c.parse(t, src)
			var first *graph.Graph
			var want string
			for p := int64(0); p < 4; p++ {
				perm := tbl.Clone()
				if p > 0 {
					perm.Permute(workload.Shuffle(perm.Len(), c.seed*10+p))
				}
				g := c.base.Clone()
				res, err := NewEngine(Config{Dialect: c.d}).ExecuteWithTable(g, stmt, nil, perm)
				got := "error"
				if err == nil {
					got = renderMultiset(res) + "\nstats: " + res.Stats.String()
				}
				if p == 0 {
					first, want = g, got
					continue
				}
				if got != want {
					c.fail(t, fmt.Sprintf("permutation %d of\n%s", p, perm), src, got, want)
				} else if err == nil && !graph.Isomorphic(g, first) {
					c.fail(t, fmt.Sprintf("permutation %d of\n%s", p, perm), src, "a graph", "an isomorphic graph")
				}
			}
		}
	})
}
