package match

import (
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/graph"
)

// keyN is a distinct synthetic cache key per n.
func keyN(n int) planCacheKey { return planCacheKey{n: n} }

// checkPlanCacheShape asserts the map and the recency list hold the same
// entries, each exactly once, and never more than the bound.
func checkPlanCacheShape(t *testing.T, c *PlanCache) {
	t.Helper()
	if len(c.entries) > planCacheMaxEntries {
		t.Fatalf("%d entries, bound %d", len(c.entries), planCacheMaxEntries)
	}
	if c.order.Len() != len(c.entries) {
		t.Fatalf("recency list holds %d entries, map %d", c.order.Len(), len(c.entries))
	}
	for el := c.order.Front(); el != nil; el = el.Next() {
		if c.entries[el.Value.(*planCacheEntry).key] != el {
			t.Fatalf("list entry %+v is not the map's entry for its key", el.Value.(*planCacheEntry).key)
		}
	}
}

// TestPlanCacheEvictionBound: storing past the bound evicts, so the
// entry count never exceeds planCacheMaxEntries, and re-storing a cached
// key replaces its entry instead of adding a second one.
func TestPlanCacheEvictionBound(t *testing.T) {
	c := NewPlanCache()
	for i := 0; i < planCacheMaxEntries+100; i++ {
		c.store(keyN(i), nil, nil, 0, 0)
		if len(c.entries) > planCacheMaxEntries {
			t.Fatalf("after %d stores: %d entries", i+1, len(c.entries))
		}
	}
	checkPlanCacheShape(t, c)
	if got := c.Stats().Entries; got != planCacheMaxEntries {
		t.Fatalf("Entries = %d, want %d", got, planCacheMaxEntries)
	}
	// The first 100 keys were the least recently used; they are gone.
	for i := 0; i < 100; i++ {
		if _, ok := c.entries[keyN(i)]; ok {
			t.Fatalf("key %d survived eviction", i)
		}
	}
	last := keyN(planCacheMaxEntries + 99)
	c.store(last, nil, []float64{1}, 7, 0)
	checkPlanCacheShape(t, c)
	if e := c.entries[last].Value.(*planCacheEntry); e.ver != 7 || len(e.est) != 1 {
		t.Fatalf("re-store did not replace the entry: %+v", e)
	}
}

// TestPlanCacheHitRefreshesRecency: a hit moves the entry to the front,
// so the next eviction takes the least recently used entry, not the
// least recently stored one.
func TestPlanCacheHitRefreshesRecency(t *testing.T) {
	g := graph.New()
	m := matcher(g)
	c := NewPlanCache()
	ver, epoch := g.Version(), g.IndexEpoch()
	for i := 0; i < planCacheMaxEntries; i++ {
		c.store(keyN(i), []partPlan{{}}, nil, ver, epoch)
	}
	if c.lookup(m, keyN(0), nil, nil) == nil {
		t.Fatal("lookup of a fresh entry missed")
	}
	c.store(keyN(planCacheMaxEntries), []partPlan{{}}, nil, ver, epoch)
	checkPlanCacheShape(t, c)
	if _, ok := c.entries[keyN(0)]; !ok {
		t.Error("the entry just hit was evicted")
	}
	if _, ok := c.entries[keyN(1)]; ok {
		t.Error("the least recently used entry survived")
	}
	if back := c.order.Back().Value.(*planCacheEntry).key; back != keyN(2) {
		t.Errorf("next victim = %+v, want key 2", back)
	}
}

// TestPlanCacheInvalidationRemovesEntry: an index-epoch change and a
// material statistics drift each drop the entry from both the map and
// the recency list.
func TestPlanCacheInvalidationRemovesEntry(t *testing.T) {
	t.Run("index-epoch", func(t *testing.T) {
		g := graph.New()
		c := NewPlanCache()
		c.store(keyN(1), []partPlan{{}}, nil, g.Version(), g.IndexEpoch())
		g.CreateIndex("A", "v")
		if c.lookup(matcher(g), keyN(1), nil, nil) != nil {
			t.Fatal("plan survived an index-epoch change")
		}
		checkPlanCacheShape(t, c)
		if len(c.entries) != 0 || c.Stats().Invalidations != 1 {
			t.Fatalf("entries = %d, stats = %+v", len(c.entries), c.Stats())
		}
	})
	t.Run("drift", func(t *testing.T) {
		g := graph.New()
		for i := 0; i < 10; i++ {
			g.CreateNode([]string{"A"}, nil)
		}
		for i := 0; i < 200; i++ {
			g.CreateNode([]string{"B"}, nil)
		}
		c := NewPlanCache()
		parts := patternOf(t, "(a:A)-[:R]->(b:B)")
		m := &Matcher{Graph: g, Ev: &expr.Evaluator{Graph: g}, Cache: c}
		m.plansFor(parts, expr.Env{})
		if len(c.entries) != 1 {
			t.Fatalf("entries = %d after planning, want 1", len(c.entries))
		}
		for i := 0; i < 5000; i++ {
			g.CreateNode([]string{"A"}, nil)
		}
		key := planCacheKey{part0: parts[0], n: len(parts), bound: boundKey(nil), mode: m.Mode}
		if c.lookup(m, key, parts, map[string]bool{}) != nil {
			t.Fatal("plan survived a material drift")
		}
		checkPlanCacheShape(t, c)
		if len(c.entries) != 0 || c.Stats().Invalidations != 1 {
			t.Fatalf("entries = %d, stats = %+v", len(c.entries), c.Stats())
		}
	})
}

// TestPlanCacheConcurrentStores: concurrent stores of one hot key, mixed
// with distinct keys and lookups, never duplicate an entry, so the
// recency list always has the map's size. Run under -race.
func TestPlanCacheConcurrentStores(t *testing.T) {
	g := graph.New()
	c := NewPlanCache()
	ver, epoch := g.Version(), g.IndexEpoch()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := matcher(g)
			for i := 0; i < 500; i++ {
				c.store(keyN(-1), []partPlan{{}}, nil, ver, epoch)
				c.store(keyN(w*1000+i%50), []partPlan{{}}, nil, ver, epoch)
				c.lookup(m, keyN(-1), nil, nil)
			}
		}(w)
	}
	wg.Wait()
	checkPlanCacheShape(t, c)
	if want := 1 + 8*50; len(c.entries) != want {
		t.Fatalf("entries = %d, want %d", len(c.entries), want)
	}
}
