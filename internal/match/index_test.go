package match

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/value"
)

// seekGraph builds n :U nodes with v:0..n-1.
func seekGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.CreateNode([]string{"U"}, value.Map{"v": value.Int(int64(i))})
	}
	return g
}

// TestPlannerChoosesIndexSeekInlineProps: with an index on (U, v), an
// inline property map anchors as an index seek — one candidate visited
// instead of the whole label — and the seek disappears with the index.
func TestPlannerChoosesIndexSeekInlineProps(t *testing.T) {
	g := seekGraph(100)
	g.CreateIndex("U", "v")

	m := matcher(g)
	var stats Stats
	m.Stats = &stats
	res := multiset(t, m, `(u:U {v: 42})`, expr.Env{})
	if len(res) != 1 {
		t.Fatalf("expected 1 match, got %d", len(res))
	}
	if stats.NodeVisits != 1 {
		t.Errorf("index seek visited %d nodes, want 1", stats.NodeVisits)
	}
	if d := m.DescribePlan(patternOf(t, `(u:U {v: 42})`), nil); !strings.Contains(d, "index-seek(:U.v)") {
		t.Errorf("DescribePlan missing index-seek: %s", d)
	}

	g.DropIndex("U", "v")
	stats = Stats{}
	res2 := multiset(t, m, `(u:U {v: 42})`, expr.Env{})
	if len(res2) != 1 || res2[0] != res[0] {
		t.Fatalf("results diverged after DROP INDEX: %v vs %v", res2, res)
	}
	if stats.NodeVisits != 100 {
		t.Errorf("label scan visited %d nodes, want 100", stats.NodeVisits)
	}
	if d := m.DescribePlan(patternOf(t, `(u:U {v: 42})`), nil); strings.Contains(d, "index-seek") {
		t.Errorf("DescribePlan still shows index-seek after drop: %s", d)
	}
}

// TestPlannerChoosesIndexSeekPushedEquality: a pushed `u.v = <expr>`
// WHERE conjunct (either operand order) seeds the seek, and the full
// result multiset equals the label scan's.
func TestPlannerChoosesIndexSeekPushedEquality(t *testing.T) {
	g := seekGraph(100)
	g.CreateIndex("U", "v")
	for _, where := range []string{`u.v = 41 + 1`, `42 = u.v`} {
		m := matcher(g)
		var stats Stats
		m.Stats = &stats
		parts := patternOf(t, `(u:U)`)
		m.SetPushdown(NewPushdown(mustExpr(t, where), parts, nil))
		res, err := m.Match(parts, expr.Env{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 {
			t.Fatalf("WHERE %s: expected 1 pruned match, got %d", where, len(res))
		}
		if v, _ := res[0]["u"].(value.Node); g.NodeProp(graph.NodeID(v.ID), "v") != value.Int(42) {
			t.Fatalf("WHERE %s: wrong node matched", where)
		}
		if stats.NodeVisits != 1 {
			t.Errorf("WHERE %s: visited %d nodes, want 1", where, stats.NodeVisits)
		}
	}

	// `u.v = u.v` references the slot on both sides: no seek possible.
	m := matcher(g)
	var stats Stats
	m.Stats = &stats
	parts := patternOf(t, `(u:U)`)
	m.SetPushdown(NewPushdown(mustExpr(t, `u.v = u.v`), parts, nil))
	if _, err := m.Match(parts, expr.Env{}); err != nil {
		t.Fatal(err)
	}
	if stats.NodeVisits != 100 {
		t.Errorf("self-referential equality seeked (%d visits), must scan", stats.NodeVisits)
	}
}

// TestPlanCacheInvalidatesOnIndexEpoch: a matcher that cached a
// scan-anchored plan must re-plan the moment an index is created (and
// again when it is dropped), even though the cardinality estimates have
// not drifted.
func TestPlanCacheInvalidatesOnIndexEpoch(t *testing.T) {
	g := seekGraph(100)
	m := matcher(g)
	var stats Stats
	m.Stats = &stats

	if got := multiset(t, m, `(u:U {v: 7})`, expr.Env{}); len(got) != 1 {
		t.Fatalf("expected 1 match, got %d", len(got))
	}
	if stats.NodeVisits != 100 {
		t.Fatalf("pre-index scan visited %d, want 100", stats.NodeVisits)
	}

	g.CreateIndex("U", "v")
	stats = Stats{}
	if got := multiset(t, m, `(u:U {v: 7})`, expr.Env{}); len(got) != 1 {
		t.Fatalf("expected 1 match, got %d", len(got))
	}
	if stats.NodeVisits != 1 {
		t.Errorf("plan cache survived CREATE INDEX: %d visits, want 1", stats.NodeVisits)
	}

	g.DropIndex("U", "v")
	stats = Stats{}
	if got := multiset(t, m, `(u:U {v: 7})`, expr.Env{}); len(got) != 1 {
		t.Fatalf("expected 1 match, got %d", len(got))
	}
	if stats.NodeVisits != 100 {
		t.Errorf("plan cache survived DROP INDEX: %d visits, want 100", stats.NodeVisits)
	}
}

// TestIndexSeekNullAndNaN: a null seek value yields no matches (ternary
// `= null` is never true) and NaN-valued lookups keep Cypher equality
// (NaN <> NaN), both identical to the label-scan behaviour.
func TestIndexSeekNullAndNaN(t *testing.T) {
	g := graph.New()
	g.CreateNode([]string{"U"}, value.Map{"v": value.Int(1)})
	g.CreateNode([]string{"U"}, value.Map{"v": value.Float(mathNaN())})
	g.CreateIndex("U", "v")

	for _, env := range []expr.Env{{"x": value.NullValue}, {"x": value.Float(mathNaN())}} {
		m := matcher(g)
		parts := patternOf(t, `(u:U)`)
		m.SetPushdown(NewPushdown(mustExpr(t, `u.v = x`), parts, []string{"x"}))
		res, err := m.Match(parts, env)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 0 {
			t.Fatalf("seek value %v matched %d nodes, want 0", env["x"], len(res))
		}
	}
}

func mathNaN() float64 {
	f := 0.0
	return f / f
}

// TestIndexSeekMultisetEqualsScanRandom cross-checks seek-anchored
// enumeration against the label scan over random graphs with colliding
// property values and multi-label nodes.
func TestIndexSeekMultisetEqualsScanRandom(t *testing.T) {
	patterns := []string{
		`(u:U {v: 2})`,
		`(u:U {v: 2})-[:R]->(w:U)`,
		`(w:U)-[:R]->(u:U {v: 1})`,
		`(u:U {v: 2, w: 1})`,
	}
	for seed := 0; seed < 3; seed++ {
		g := graph.New()
		var ids []graph.NodeID
		for i := 0; i < 60; i++ {
			props := value.Map{"v": value.Int(int64(i % 5))}
			if i%3 == 0 {
				props["w"] = value.Int(int64(i % 2))
			}
			labels := []string{"U"}
			if i%4 == 0 {
				labels = append(labels, "X")
			}
			ids = append(ids, g.CreateNode(labels, props).ID)
		}
		for i, id := range ids {
			if _, err := g.CreateRel(id, ids[(i*7+seed)%len(ids)], "R", nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range patterns {
			scan := multiset(t, matcher(g), p, expr.Env{})
			g.CreateIndex("U", "v")
			g.CreateIndex("U", "w")
			seeked := multiset(t, matcher(g), p, expr.Env{})
			g.DropIndex("U", "v")
			g.DropIndex("U", "w")
			if strings.Join(scan, "\n") != strings.Join(seeked, "\n") {
				t.Fatalf("seed=%d pattern %s: seek multiset diverged from scan\nscan: %v\nseek: %v", seed, p, scan, seeked)
			}
		}
	}
}
