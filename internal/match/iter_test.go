package match

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/value"
)

// drain runs one enumeration of the matches extending the seed row to
// the end in Next calls of at most max rows and returns the matches,
// the visit counters and the error.
func drain(t *testing.T, it *Iter, m *Matcher, parts []*ast.PatternPart, row []value.Value, ap *AnchorPlan, max int) ([]string, Stats, error) {
	t.Helper()
	var st Stats
	m.Stats = &st
	it.Reset(m, parts, bind(m, row), ap)
	var out []string
	for {
		n, err := it.Next(max, func(row []value.Value) { out = append(out, envKey(envOf(row))) })
		if n > max {
			t.Errorf("Next(%d) returned %d rows", max, n)
		}
		if err != nil || n < max {
			return out, st, err
		}
	}
}

// resumeGraph has directed and undirected cycles, a self-loop, two
// relationship types and a parallel pair, so var-length searches
// backtrack through every kind of frame.
func resumeGraph() (*graph.Graph, []graph.NodeID, []graph.RelID) {
	g := graph.New()
	var ns []graph.NodeID
	for i, l := range []string{"A", "A", "B", "B", "A"} {
		ns = append(ns, g.CreateNode([]string{l}, value.Map{"i": value.Int(int64(i))}).ID)
	}
	var rs []graph.RelID
	for _, e := range []struct {
		src, tgt int
		typ      string
	}{{0, 1, "T"}, {1, 2, "T"}, {2, 0, "T"}, {2, 3, "T"}, {3, 3, "T"}, {0, 2, "U"}, {1, 0, "T"}, {1, 2, "T"}, {4, 3, "U"}} {
		r, err := g.CreateRel(ns[e.src], ns[e.tgt], e.typ, value.Map{"w": value.Int(int64(e.src + e.tgt))})
		if err != nil {
			panic(err)
		}
		rs = append(rs, r.ID)
	}
	return g, ns, rs
}

// TestIterResumption holds the iterator's batched drains to its
// unbounded drain: for every pattern, binding, matcher configuration and
// filter, draining with any batch size yields the same match sequence,
// the same error and the same visit counters. It also abandons an
// iterator mid-enumeration and reuses it and its matcher: a stale
// relationship mark or binding would change the rerun. The seed row
// must come out of every drain, abandoned walk and error unchanged.
func TestIterResumption(t *testing.T) {
	g, ns, rs := resumeGraph()
	node := func(i int) value.Value { return value.Node{ID: int64(ns[i])} }
	rel := func(i int) value.Value { return value.Rel{ID: int64(rs[i])} }
	cases := []struct {
		pattern string
		env     Env
	}{
		{`(x)-[:T*0..]->(y)`, nil},
		{`(x:A)-[:T*2]->(y)`, nil},
		{`(x)-[r:T*]-(y)`, nil},
		{`(x)<-[r:T*1..3]-(y:B)`, nil},
		{`(x)-[r]-(y)`, nil},
		{`(x)-[r]->(x)`, nil},
		{`p = (x:A)-[:T]->(y)-[:T]->(z)`, nil},
		{`p = (x)-[:T*1..2]-(y:B)`, nil},
		{`(x)-[:T]->(y), (y)-[:T]->(z)`, nil},
		{`(x)-[r1:T]->(y)-[r2:T]->(z)-[r3:T]->(x)`, nil},
		{`(x)-[a:T*1..2]->(y)-[b:T*1..2]->(z)`, nil},
		{`(x:A)-[:T{w: 1}]->(y), (z:B)`, nil},
		{`(u)-[:T]->(v)`, Env{"u": node(1)}},
		{`(u)-[:T]->(v)`, Env{"u": value.NullValue}},
		{`(u)-[:T]->(v)`, Env{"u": value.Int(1)}},
		{`(x)-[:T]->(v)-[:T]->(u)`, Env{"u": value.Int(1)}},
		{`(x)-[r:T]->(y)`, Env{"r": rel(1)}},
		{`(x)-[r:T]->(y)`, Env{"r": value.NullValue}},
		{`(x)-[r:T]->(y)`, Env{"r": value.Int(1)}},
		{`(x)-[r:T*1..2]->(y)`, Env{"r": value.NullValue}},
		{`(x)-[:T]->(y)-[r:T]->(z)`, Env{"r": rel(3), "x": node(1)}},
		{`(x)-[r:T*0..2]-(y:B)`, Env{"k": value.Int(7)}},
		{`p = (x:A {i: p})-[:T]->(y), (y)-[:T]->(z)`, Env{"p": value.Int(0), "k": value.Int(7)}},
	}
	filters := []struct {
		name string
		make func() func([]value.Value) (bool, error)
	}{
		{"none", func() func([]value.Value) (bool, error) { return nil }},
		{"half", func() func([]value.Value) (bool, error) {
			return func(row []value.Value) (bool, error) { return len(envKey(envOf(row)))%2 == 0, nil }
		}},
		{"error", func() func([]value.Value) (bool, error) {
			calls := 0
			return func([]value.Value) (bool, error) {
				if calls++; calls == 5 {
					return false, errors.New("filter failed")
				}
				return true, nil
			}
		}},
	}
	configs := []struct {
		name string
		m    func() *Matcher
	}{
		{"planned", func() *Matcher { return matcher(g) }},
		{"naive", func() *Matcher { m := matcher(g); m.DisablePlan = true; return m }},
		{"homomorphism", func() *Matcher { m := matcher(g); m.Mode = Homomorphism; return m }},
	}
	errText := func(err error) string { return fmt.Sprint(err) }
	for _, c := range cases {
		parts := patternOf(t, c.pattern)
		row := rowOf(c.env)
		kept := slices.Clone(row)
		for _, cfg := range configs {
			for _, f := range filters {
				name := fmt.Sprintf("%s/%v/%s/%s", c.pattern, c.env, cfg.name, f.name)
				seedKept := func(after string) {
					t.Helper()
					if !slices.Equal(row, kept) {
						t.Fatalf("%s: seed row %v after %s, was %v", name, row, after, kept)
					}
				}
				var ref Iter
				ref.Filter = f.make()
				want, wantSt, wantErr := drain(t, &ref, cfg.m(), parts, row, nil, math.MaxInt)
				seedKept("a full drain")
				for _, max := range []int{1, 2, 3, 7, 256} {
					it := Iter{Filter: f.make()}
					got, st, err := drain(t, &it, cfg.m(), parts, row, nil, max)
					if strings.Join(got, "\n") != strings.Join(want, "\n") || errText(err) != errText(wantErr) || st != wantSt {
						t.Fatalf("%s max=%d:\n got %d rows, err %v, %+v\nwant %d rows, err %v, %+v",
							name, max, len(got), err, st, len(want), wantErr, wantSt)
					}
				}
				// Abandon after the first batch, then rerun on the same
				// iterator and matcher, and on a fresh iterator.
				m := cfg.m()
				it := Iter{Filter: f.make()}
				it.Reset(m, parts, bind(m, row), nil)
				if _, err := it.Next(1, func([]value.Value) {}); err != nil && wantErr == nil {
					t.Fatalf("%s: first batch: %v", name, err)
				}
				seedKept("an abandoned walk")
				for _, rerun := range []*Iter{&it, {}} {
					rerun.Filter = f.make()
					got, _, err := drain(t, rerun, m, parts, row, nil, 2)
					if strings.Join(got, "\n") != strings.Join(want, "\n") || errText(err) != errText(wantErr) {
						t.Fatalf("%s: rerun after an abandoned iterator got %d rows, err %v; want %d rows, err %v",
							name, len(got), err, len(want), wantErr)
					}
					seedKept("a rerun")
				}
			}
		}
	}
}

// TestAnchorChunksConcurrent splits an AnchorPlan's candidates into
// chunks and enumerates each chunk on its own Matcher in its own
// goroutine over the shared plan: the chunks' matches, concatenated in
// chunk order, must be the serial enumeration, and their visit counters
// must sum to the serial ones. `make par` runs it under the race
// detector.
func TestAnchorChunksConcurrent(t *testing.T) {
	g := graph.New()
	rng := rand.New(rand.NewSource(7))
	var ns []graph.NodeID
	for i := 0; i < 60; i++ {
		ns = append(ns, g.CreateNode([]string{[]string{"A", "B"}[i%2]}, value.Map{"i": value.Int(int64(i))}).ID)
	}
	for i := 0; i < 150; i++ {
		if _, err := g.CreateRel(ns[rng.Intn(len(ns))], ns[rng.Intn(len(ns))], "T", nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ pattern, where string }{
		{`(a:A)-[:T]->(b)`, ``},
		{`(a:A)-[:T]->(b)`, `b.i % 3 = 0`},
		{`(a:A)-[r:T*1..2]-(b)`, ``},
		{`(a:A)-[:T]->(b), (b)-[:T]->(c:A)`, `a.i < c.i`},
		{`p = (a:A)-[:T]->(b:B)-[:T]->(c)`, ``},
	} {
		parts := patternOf(t, c.pattern)
		var where ast.Expr
		if c.where != "" {
			where = mustExpr(t, c.where)
		}
		newMatcher := func() *Matcher {
			m := matcher(g)
			m.SetPushdown(NewPushdown(where, parts, nil))
			return m
		}
		newIter := func() *Iter {
			if where == nil {
				return &Iter{}
			}
			ev := &expr.Evaluator{Graph: g}
			return &Iter{Filter: func(row []value.Value) (bool, error) {
				ok, err := ev.EvalBool(where, row)
				return ok == value.True, err
			}}
		}
		am := newMatcher()
		ap, ok := am.PlanAnchors(parts, seed(am, nil))
		if !ok {
			t.Fatalf("%s: not partitionable", c.pattern)
		}
		serial, serialSt, _ := drain(t, newIter(), newMatcher(), parts, rowOf(nil), nil, math.MaxInt)
		if len(serial) == 0 {
			t.Fatalf("%s: no matches", c.pattern)
		}
		anchors := ap.Anchors()
		for _, size := range []int{1, 3, 16} {
			n := (len(anchors) + size - 1) / size
			got := make([][]string, n)
			stats := make([]Stats, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					chunk := ap.Chunk(i*size, min((i+1)*size, len(anchors)))
					got[i], stats[i], errs[i] = drain(t, newIter(), newMatcher(), parts, rowOf(nil), chunk, 5)
				}(i)
			}
			wg.Wait()
			var all []string
			var sum Stats
			for i := range got {
				if errs[i] != nil {
					t.Fatalf("%s chunk %d: %v", c.pattern, i, errs[i])
				}
				all = append(all, got[i]...)
				sum.NodeVisits += stats[i].NodeVisits
				sum.RelVisits += stats[i].RelVisits
				sum.Emitted += stats[i].Emitted
			}
			if strings.Join(all, "\n") != strings.Join(serial, "\n") {
				t.Fatalf("%s chunk size %d: %d chunked matches differ from %d serial", c.pattern, size, len(all), len(serial))
			}
			if sum != serialSt {
				t.Errorf("%s chunk size %d: chunk stats sum %+v, serial %+v", c.pattern, size, sum, serialSt)
			}
		}
	}
}

// TestPerCandidateAllocations bounds what visiting a candidate
// allocates: Matcher.Match over n :U nodes, none of which matches. An
// inline property map is compared entry by entry, so its scan
// allocates the same at n = 1000 as at n = 10; a pushed conjunct, or a
// hop over no relationships, costs at most one allocation per
// candidate, the boxed node value.
func TestPerCandidateAllocations(t *testing.T) {
	allocs := func(n int, pattern, where string, env Env) float64 {
		g := graph.New()
		for i := 0; i < n; i++ {
			g.CreateNode([]string{"U"}, value.Map{"w": value.Int(0), "v": value.Int(int64(i))})
		}
		m := matcher(g)
		parts := patternOf(t, pattern)
		if where != "" {
			m.SetPushdown(NewPushdown(mustExpr(t, where), parts, nil))
		}
		return testing.AllocsPerRun(20, func() {
			res, err := m.Match(parts, env)
			if err != nil || len(res) != 0 {
				t.Fatalf("%s: %d matches, err %v", pattern, len(res), err)
			}
		})
	}
	const small, large = 10, 1000
	for _, c := range []struct {
		pattern, where string
		env            Env
		per            float64 // allocations allowed per candidate
	}{
		{`(u:U {w: 0, v: x})`, ``, Env{"x": value.Int(-1)}, 0},
		{`(u:U)`, `u.w = 1`, Env{}, 1},
		{`(u:U)-[:T]->(v)`, ``, Env{}, 1},
	} {
		a, b := allocs(small, c.pattern, c.where, c.env), allocs(large, c.pattern, c.where, c.env)
		t.Logf("%s %s: %.0f allocations at n=%d, %.0f at n=%d", c.pattern, c.where, a, small, b, large)
		if b-a > c.per*(large-small) {
			t.Errorf("want at most %.0f per candidate", c.per)
		}
	}
}
