package match

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/value"
)

// TestPlanCacheInvalidationRemovesEntry: an index-epoch change and a
// material statistics drift each make the next consult of a shared
// slot — from a fresh matcher, as the next statement's would be —
// replan, replace the entry and count one invalidation, while a consult
// with nothing changed reuses the entry.
func TestPlanCacheInvalidationRemovesEntry(t *testing.T) {
	setup := func(t *testing.T) (*graph.Graph, *PlanCounts, func() []partPlan) {
		g := graph.New()
		for i := 0; i < 10; i++ {
			g.CreateNode([]string{"A"}, nil)
		}
		for i := 0; i < 200; i++ {
			g.CreateNode([]string{"B"}, nil)
		}
		counts := new(PlanCounts)
		slot := NewPlanSlot(counts)
		parts := patternOf(t, "(a:A)-[:R]->(b:B)")
		consult := func() []partPlan {
			m := &Matcher{Graph: g, Ev: &expr.Evaluator{Graph: g}, Slot: slot}
			return m.plansFor(parts)
		}
		first := consult()
		if again := consult(); &again[0] != &first[0] {
			t.Fatal("an unchanged graph replanned")
		}
		return g, counts, consult
	}
	check := func(t *testing.T, counts *PlanCounts, consult func() []partPlan) {
		t.Helper()
		before := consult()
		if st := counts.Stats(0); st.Misses != 1 || st.Hits != 1 || st.Invalidations != 1 {
			t.Fatalf("stats = %+v, want 1 miss, 1 hit, 1 invalidation", st)
		}
		if again := consult(); &again[0] != &before[0] {
			t.Fatal("the replacement entry was not reused")
		}
	}
	t.Run("index-epoch", func(t *testing.T) {
		g, counts, consult := setup(t)
		g.CreateIndex("A", "v")
		check(t, counts, consult)
	})
	t.Run("drift", func(t *testing.T) {
		g, counts, consult := setup(t)
		for i := 0; i < 5000; i++ {
			g.CreateNode([]string{"A"}, nil)
		}
		check(t, counts, consult)
	})
}

// TestPlanSlotHitsAllocateNothing: reusing the matcher's validated entry
// (the per-record path) and a slot hit at an unchanged graph version
// (the next statement's first consult) allocate nothing.
func TestPlanSlotHitsAllocateNothing(t *testing.T) {
	g := graph.New()
	a := g.CreateNode([]string{"A"}, nil)
	g.CreateNode([]string{"B"}, nil)
	parts := patternOf(t, "(a:A)-[:R]->(b:B)")
	env := Env{"a": value.Node{ID: int64(a.ID)}}
	slot := NewPlanSlot(new(PlanCounts))
	m := &Matcher{Graph: g, Ev: &expr.Evaluator{Graph: g}, Slot: slot}
	seed(m, env)
	m.plansFor(parts)
	if n := testing.AllocsPerRun(100, func() { m.plansFor(parts) }); n != 0 {
		t.Errorf("per-record reuse: %.0f allocations", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.seen = nil; m.plansFor(parts) }); n != 0 {
		t.Errorf("slot hit: %.0f allocations", n)
	}
}
