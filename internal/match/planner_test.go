package match

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/value"
)

// mustExpr parses a predicate expression via a WHERE clause.
func mustExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	stmt, err := parser.Parse("MATCH (zz_) WHERE " + src + " RETURN 1")
	if err != nil {
		t.Fatalf("parse expr %q: %v", src, err)
	}
	where := stmt.Queries[0].Clauses[0].(*ast.MatchClause).Where
	testNames.Expr(where)
	return where
}

// envKey renders one match environment order-insensitively.
func envKey(e Env) string {
	keys := make([]string, 0, len(e))
	for k := range e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteString("=")
		sb.WriteString(value.Key(e[k]))
		sb.WriteString(";")
	}
	return sb.String()
}

func multiset(t *testing.T, m *Matcher, pattern string, env Env) []string {
	t.Helper()
	res, err := m.Match(patternOf(t, pattern), env)
	if err != nil {
		t.Fatalf("%s: %v", pattern, err)
	}
	keys := make([]string, len(res))
	for i, e := range res {
		keys[i] = envKey(e)
	}
	sort.Strings(keys)
	return keys
}

// TestPlannedMatchesNaiveRandomGraphs cross-checks the planned
// (anchored, bidirectional, reordered) enumeration against the naive
// left-to-right walk over random skewed graphs: same match multiset for
// every pattern shape, in both uniqueness modes. This is the
// order-insensitivity argument of the planner made executable at the
// matcher level.
func TestPlannedMatchesNaiveRandomGraphs(t *testing.T) {
	patterns := []string{
		`(a:A)-[:R]->(b:B)`,
		`(a:A)<-[:R]-(b:B)`,
		`(a)-[r]-(b)`,
		`(a:A)-[:R]->(b:B)-[:S]->(c:C)`,
		`(a:C)<-[:S]-(b:B)<-[:R]-(c:A)`,
		`(a:A)-[:R]->(b)-[:S]->(c:C), (d:B)`,
		`(a:A)-[:R*1..3]->(b)`,
		`(a)-[:S*1..2]-(b:C)`,
		`pth = (a:A)-[:R]->(b)-[:S*1..2]->(c)`,
		`(a:A)-[r1:R]->(b), (c)-[r2:S]->(b)`,
		`(a)-[:R]->(a)`,
		`(a:A)-[:R]->(b:B{v:1})`,
	}
	labels := [][]string{{"A"}, {"B"}, {"C"}, {"A", "B"}, {}}
	types := []string{"R", "S"}

	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		var ids []graph.NodeID
		// Skewed label distribution so anchors genuinely flip.
		for i := 0; i < 30; i++ {
			li := 0
			if i >= 3 {
				li = 1 + rng.Intn(len(labels)-1)
			}
			n := g.CreateNode(labels[li], value.Map{"v": value.Int(int64(rng.Intn(3)))})
			ids = append(ids, n.ID)
		}
		for i := 0; i < 60; i++ {
			src := ids[rng.Intn(len(ids))]
			tgt := ids[rng.Intn(len(ids))]
			if _, err := g.CreateRel(src, tgt, types[rng.Intn(len(types))], nil); err != nil {
				t.Fatal(err)
			}
		}

		for _, mode := range []Mode{Isomorphism, Homomorphism} {
			planned := &Matcher{Graph: g, Ev: &expr.Evaluator{Graph: g}, Mode: mode}
			naive := &Matcher{Graph: g, Ev: &expr.Evaluator{Graph: g}, Mode: mode, DisablePlan: true}
			for _, pat := range patterns {
				got := multiset(t, planned, pat, Env{})
				want := multiset(t, naive, pat, Env{})
				if len(got) != len(want) {
					t.Fatalf("seed=%d mode=%v %s: planned %d matches, naive %d",
						seed, mode, pat, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed=%d mode=%v %s: multiset diverged at %d:\n%s\nvs\n%s",
							seed, mode, pat, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestForcedAnchorsSweepMultiset forces every anchor position of a
// 3-node path and requires identical multisets.
func TestForcedAnchorsSweepMultiset(t *testing.T) {
	g := graph.New()
	a := g.CreateNode([]string{"A"}, nil)
	b1 := g.CreateNode([]string{"B"}, nil)
	b2 := g.CreateNode([]string{"B"}, nil)
	c := g.CreateNode([]string{"C"}, nil)
	for _, b := range []graph.NodeID{b1.ID, b2.ID} {
		if _, err := g.CreateRel(a.ID, b, "R", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := g.CreateRel(b, c.ID, "S", nil); err != nil {
			t.Fatal(err)
		}
	}
	pat := `(x:A)-[:R]->(y:B)-[:S]->(z:C)`
	base := multiset(t, &Matcher{Graph: g, Ev: &expr.Evaluator{Graph: g}}, pat, Env{})
	if len(base) != 2 {
		t.Fatalf("base matches = %d, want 2", len(base))
	}
	for anchor := 0; anchor < 3; anchor++ {
		m := &Matcher{Graph: g, Ev: &expr.Evaluator{Graph: g},
			ForceAnchor: func(int, *ast.PatternPart) int { return anchor }}
		got := multiset(t, m, pat, Env{})
		if fmt.Sprint(got) != fmt.Sprint(base) {
			t.Errorf("anchor=%d multiset diverged:\n%v\nvs\n%v", anchor, got, base)
		}
	}
}

// TestPushdownClassification pins which conjuncts are pushed where.
func TestPushdownClassification(t *testing.T) {
	parts := patternOf(t, `(a:A)-[r:R]->(b:B)-[vs:S*1..2]->(c)`)
	where := mustExpr(t, `a.v = 1 AND r.w > 2 AND a.v < b.v AND vs IS NULL AND outer = 3 AND c.k = outer`)
	pd := NewPushdown(where, parts, []string{"outer"})
	if pd == nil {
		t.Fatal("expected pushdown")
	}
	count := func(m map[*ast.NodePattern][]ast.Expr) int {
		n := 0
		for _, v := range m {
			n += len(v)
		}
		return n
	}
	// a.v = 1 → node a; c.k = outer → node c.
	if got := count(pd.Node); got != 2 {
		t.Errorf("node preds = %d, want 2 (%v)", got, pd.Node)
	}
	// r.w > 2 → rel r.
	relCount := 0
	for _, v := range pd.Rel {
		relCount += len(v)
	}
	if relCount != 1 {
		t.Errorf("rel preds = %d, want 1", relCount)
	}
	// outer = 3 → pre-predicate.
	if len(pd.Pre) != 1 {
		t.Errorf("pre preds = %d, want 1", len(pd.Pre))
	}
	// a.v < b.v spans two slots and vs is a var-length variable: neither
	// may be pushed (but both are total, so they do not block the rest).
	// Total pushed = 4 of 6 conjuncts.
}

// TestPushdownBlockedByFallibleConjunct: when any conjunct can error,
// the other conjuncts must not prune — pruning would suppress the
// error the seed semantics raises on complete matches.
func TestPushdownBlockedByFallibleConjunct(t *testing.T) {
	parts := patternOf(t, `(a:A)-[:R]->(b:B)`)
	// The total conjunct b.v = 1 must not prune: pruning would hide the
	// runtime error a.v / 0 raises on completions. The fallible conjunct
	// itself MAY prune — its errors defer, and its sibling cannot error.
	pd := NewPushdown(mustExpr(t, `a.v / 0 = 1 AND b.v = 1`), parts, nil)
	if pd == nil {
		t.Fatal("expected the fallible conjunct itself to be pushed")
	}
	var pushed []string
	for _, cs := range pd.Node {
		for _, c := range cs {
			pushed = append(pushed, c.String())
		}
	}
	if len(pushed) != 1 || !strings.Contains(pushed[0], "/ 0") {
		t.Errorf("pushed = %v, want only the fallible conjunct", pushed)
	}
	// Two fallible conjuncts block each other entirely.
	pd = NewPushdown(mustExpr(t, `a.v / 0 = 1 AND b.v / 0 = 1`), parts, nil)
	if !pd.Empty() {
		t.Errorf("two fallible conjuncts must block all pushdown, got %+v", pd)
	}
	// A lone fallible conjunct is eligible: its own errors defer.
	pd = NewPushdown(mustExpr(t, `a.v / 0 = 1`), parts, nil)
	if pd.Empty() {
		t.Error("lone conjunct should be pushable (errors defer)")
	}
}

// TestPushdownErrorsDeferred: a pushed conjunct that errors on a
// candidate must not fail the match — the error belongs to the full
// WHERE evaluation, which only sees complete matches.
func TestPushdownErrorsDeferred(t *testing.T) {
	g := graph.New()
	// v holds a string on one node: v + 1 errors there.
	bad := g.CreateNode([]string{"A"}, value.Map{"v": value.String("oops")})
	good := g.CreateNode([]string{"A"}, value.Map{"v": value.Int(1)})
	tgt := g.CreateNode([]string{"B"}, nil)
	// Only the good node has an edge; the bad node never completes a
	// match, so the seed semantics never evaluates WHERE on it.
	if _, err := g.CreateRel(good.ID, tgt.ID, "R", nil); err != nil {
		t.Fatal(err)
	}
	_ = bad
	parts := patternOf(t, `(a:A)-[:R]->(b:B)`)
	where := mustExpr(t, `a.v + 1 = 2`)
	m := &Matcher{Graph: g, Ev: &expr.Evaluator{Graph: g}}
	m.SetPushdown(NewPushdown(where, parts, nil))
	// The pushdown evaluates a.v + 1 on the bad candidate too; the
	// error must be swallowed (candidate kept, pruned by no edge).
	it := Iter{Filter: func(row []value.Value) (bool, error) {
		ok, err := m.Ev.EvalBool(where, row)
		return ok == value.True, err
	}}
	it.Reset(m, parts, seed(m, nil), nil)
	n, err := it.Next(math.MaxInt, func([]value.Value) {})
	if err != nil {
		t.Fatalf("pushed predicate error leaked: %v", err)
	}
	if n != 1 {
		t.Errorf("matches = %d, want 1", n)
	}
}

// TestDescribePlan checks the EXPLAIN rendering: order, anchors and
// estimates reflect the statistics.
func TestDescribePlan(t *testing.T) {
	g := graph.New()
	for i := 0; i < 50; i++ {
		g.CreateNode([]string{"Common"}, nil)
	}
	rare := g.CreateNode([]string{"Rare"}, nil)
	if _, err := g.CreateRel(g.CreateNode([]string{"Common"}, nil).ID, rare.ID, "R", nil); err != nil {
		t.Fatal(err)
	}
	m := &Matcher{Graph: g, Ev: &expr.Evaluator{Graph: g}}
	desc := m.DescribePlan(patternOf(t, `(c:Common)-[:R]->(r:Rare)`))
	for _, want := range []string{"order=[0]", "anchor=[r]", "est=[1]"} {
		if !strings.Contains(desc, want) {
			t.Errorf("DescribePlan missing %q: %s", want, desc)
		}
	}
}

// TestPlanCacheSurvivesUndriftedMutation: small structural mutations
// bump graph.Version, but a cached plan whose anchor estimates have not
// drifted is reused (identity of the cached slice), so interleaved
// writes do not force a replan per record.
func TestPlanCacheSurvivesUndriftedMutation(t *testing.T) {
	g := graph.New()
	for i := 0; i < 10; i++ {
		g.CreateNode([]string{"A"}, nil)
	}
	for i := 0; i < 1000; i++ {
		g.CreateNode([]string{"B"}, nil)
	}
	m := &Matcher{Graph: g, Ev: &expr.Evaluator{Graph: g}}
	parts := patternOf(t, "(a:A)-[:R]->(b:B)")
	plans1 := m.plansFor(parts)
	if plans1[0].anchor != 0 {
		t.Fatalf("anchor = %d, want 0 (the rare :A slot)", plans1[0].anchor)
	}
	ver := g.Version()
	g.CreateNode([]string{"B"}, nil) // version bump, negligible drift
	if g.Version() == ver {
		t.Fatal("mutation did not bump the version")
	}
	plans2 := m.plansFor(parts)
	if &plans1[0] != &plans2[0] {
		t.Error("undrifted version bump discarded the cached plan")
	}
}

// TestPlanCacheSurvivesRolledBackTxn is the regression test for the
// copy-on-write rollback path: a transaction that creates an index and
// bulk-loads nodes but then rolls back leaves the published graph
// content-identical, so a plan cached before the transaction must be
// reused afterwards — the rollback must not bump the cache-relevant
// counters (Version, IndexEpoch) or drift the statistics. Before the
// fix, the store published the undo-restored clone, whose churned
// counters invalidated every cached plan for no content change.
func TestPlanCacheSurvivesRolledBackTxn(t *testing.T) {
	g := graph.New()
	g.CreateIndex("A", "v")
	for i := 0; i < 10; i++ {
		g.CreateNode([]string{"A"}, value.Map{"v": value.Int(int64(i))})
	}
	for i := 0; i < 1000; i++ {
		g.CreateNode([]string{"B"}, nil)
	}
	s := graph.NewStore(g)

	snap := s.Acquire()
	m := &Matcher{Graph: snap.Graph(), Ev: &expr.Evaluator{Graph: snap.Graph()}}
	parts := patternOf(t, "(a:A{v:1})-[:R]->(b:B)")
	plans1 := m.plansFor(parts)
	if plans1[0].seek == nil {
		t.Fatal("expected an index-seek anchor on :A(v)")
	}
	preVersion, preIdxEpoch := snap.Graph().Version(), snap.Graph().IndexEpoch()

	// Clone-path transaction (the snapshot above keeps the reader
	// pinned): schema op + heavy skew, then a full rollback.
	w := s.BeginWrite()
	w.Graph().CreateIndex("B", "v")
	w.Graph().DropIndex("A", "v")
	for i := 0; i < 5000; i++ {
		w.Graph().CreateNode([]string{"A"}, nil)
	}
	w.Rollback()
	snap.Release()

	after := s.Acquire()
	defer after.Release()
	if got := after.Graph().Version(); got != preVersion {
		t.Fatalf("rolled-back txn moved Version %d -> %d", preVersion, got)
	}
	if got := after.Graph().IndexEpoch(); got != preIdxEpoch {
		t.Fatalf("rolled-back txn moved IndexEpoch %d -> %d", preIdxEpoch, got)
	}
	// Re-point the matcher at the newly published epoch, as the next
	// statement would: the cached plan must survive.
	m.Graph = after.Graph()
	m.Ev = &expr.Evaluator{Graph: after.Graph()}
	plans2 := m.plansFor(parts)
	if &plans1[0] != &plans2[0] {
		t.Error("rolled-back transaction invalidated the cached plan")
	}
	if plans2[0].seek == nil {
		t.Error("cached plan lost its index seek anchor")
	}
}

// TestPlanCacheReplansOnStatsDrift is the regression test for stale
// anchors: a skewed bulk load inverts which label is rare, and the
// cached plan must be re-planned onto the new anchor rather than kept
// on version-blind reuse.
func TestPlanCacheReplansOnStatsDrift(t *testing.T) {
	g := graph.New()
	for i := 0; i < 10; i++ {
		g.CreateNode([]string{"A"}, nil)
	}
	for i := 0; i < 200; i++ {
		g.CreateNode([]string{"B"}, nil)
	}
	m := &Matcher{Graph: g, Ev: &expr.Evaluator{Graph: g}}
	parts := patternOf(t, "(a:A)-[:R]->(b:B)")
	plans := m.plansFor(parts)
	if plans[0].anchor != 0 {
		t.Fatalf("pre-load anchor = %d, want 0 (:A is rare)", plans[0].anchor)
	}
	// Skewed bulk load: :A becomes the common label by far.
	for i := 0; i < 5000; i++ {
		g.CreateNode([]string{"A"}, nil)
	}
	plans = m.plansFor(parts)
	if plans[0].anchor != 1 {
		t.Errorf("post-load anchor = %d, want 1 (:B is now rare); stale plan survived the drift", plans[0].anchor)
	}
	// And the matcher still enumerates correctly after the replan.
	if _, err := g.CreateRel(g.NodeIDsByLabel("A")[0], g.NodeIDsByLabel("B")[0], "R", nil); err != nil {
		t.Fatal(err)
	}
	res, err := m.Match(parts, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("matches = %d, want 1", len(res))
	}
}
