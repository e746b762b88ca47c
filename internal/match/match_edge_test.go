package match

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/value"
)

func TestPreBoundRelVariable(t *testing.T) {
	g := graph.New()
	a := g.CreateNode(nil, nil)
	b := g.CreateNode(nil, nil)
	r1, _ := g.CreateRel(a.ID, b.ID, "T", nil)
	g.CreateRel(a.ID, b.ID, "T", nil) // a second parallel rel
	m := matcher(g)

	// A bound rel variable restricts candidates to exactly that rel.
	env := Env{"r": value.Rel{ID: int64(r1.ID)}}
	res, err := m.Match(patternOf(t, "(x)-[r:T]->(y)"), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("bound rel matches = %d, want 1", len(res))
	}
	if res[0]["r"].(value.Rel).ID != int64(r1.ID) {
		t.Error("wrong rel bound")
	}

	// Bound to null: no matches.
	res, err = m.Match(patternOf(t, "(x)-[r:T]->(y)"), Env{"r": value.NullValue})
	if err != nil || len(res) != 0 {
		t.Errorf("null rel binding: %d, %v", len(res), err)
	}

	// Bound to a non-rel: error.
	if _, err := m.Match(patternOf(t, "(x)-[r:T]->(y)"), Env{"r": value.Int(1)}); err == nil {
		t.Error("non-rel binding should error")
	}

	// Type filter still applies to the bound rel.
	res, _ = m.Match(patternOf(t, "(x)-[r:OTHER]->(y)"), env)
	if len(res) != 0 {
		t.Error("bound rel must still satisfy the type filter")
	}
}

func TestVarLengthPreBoundErrors(t *testing.T) {
	g := graph.New()
	a := g.CreateNode(nil, nil)
	b := g.CreateNode(nil, nil)
	r, _ := g.CreateRel(a.ID, b.ID, "T", nil)
	m := matcher(g)
	env := Env{"rs": value.Rel{ID: int64(r.ID)}}
	if _, err := m.Match(patternOf(t, "(x)-[rs:T*1..2]->(y)"), env); err == nil {
		t.Error("pre-bound var-length variable should error")
	}
}

func TestEndNodeBoundMismatch(t *testing.T) {
	g := graph.New()
	a := g.CreateNode(nil, nil)
	b := g.CreateNode(nil, nil)
	c := g.CreateNode(nil, nil)
	g.CreateRel(a.ID, b.ID, "T", nil)
	m := matcher(g)
	// y is bound to c, but the only T-rel ends at b: no match, no error.
	env := Env{"y": value.Node{ID: int64(c.ID)}}
	res, err := m.Match(patternOf(t, "(x)-[:T]->(y)"), env)
	if err != nil || len(res) != 0 {
		t.Errorf("mismatched end binding: %d, %v", len(res), err)
	}
	// y bound to a non-node: error only when reachable.
	if _, err := m.Match(patternOf(t, "(x)-[:T]->(y)"), Env{"y": value.Int(1)}); err == nil {
		t.Error("non-node end binding should error")
	}
	// y bound to null: no matches.
	res, err = m.Match(patternOf(t, "(x)-[:T]->(y)"), Env{"y": value.NullValue})
	if err != nil || len(res) != 0 {
		t.Errorf("null end binding: %d, %v", len(res), err)
	}
}

func TestVarLengthRelPropsFilter(t *testing.T) {
	g := graph.New()
	var ids []graph.NodeID
	for i := 0; i < 3; i++ {
		ids = append(ids, g.CreateNode(nil, nil).ID)
	}
	g.CreateRel(ids[0], ids[1], "T", value.Map{"w": value.Int(1)})
	g.CreateRel(ids[1], ids[2], "T", value.Map{"w": value.Int(2)})
	m := matcher(g)
	// Only w:1 edges are traversable: a single 1-hop path.
	res, err := m.Match(patternOf(t, "(x)-[:T*1..2 {w:1}]->(y)"), Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("filtered var-length = %d, want 1", len(res))
	}
}

func TestVarLengthZeroHops(t *testing.T) {
	g := graph.New()
	a := g.CreateNode([]string{"X"}, nil)
	m := matcher(g)
	// *0.. includes the empty path where start = end.
	res, err := m.Match(patternOf(t, "(x:X)-[:T*0..1]->(y)"), Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("zero-hop matches = %d, want 1", len(res))
	}
	if res[0]["x"] != res[0]["y"] {
		t.Error("zero-hop path must bind x = y")
	}
	_ = a
}

func TestPropsErrorPropagation(t *testing.T) {
	g := graph.New()
	g.CreateNode([]string{"A"}, nil)
	m := matcher(g)
	// A property expression referencing an unbound variable errors.
	if _, err := m.Match(patternOf(t, "(x:A{k: nosuch.prop})"), Env{}); err == nil {
		t.Error("bad property expression should error")
	}
}

func TestMultipleLabelsUseSmallestIndex(t *testing.T) {
	g := graph.New()
	for i := 0; i < 50; i++ {
		g.CreateNode([]string{"Common"}, nil)
	}
	n := g.CreateNode([]string{"Common", "Rare"}, nil)
	m := matcher(g)
	res, err := m.Match(patternOf(t, "(x:Common:Rare)"), Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0]["x"].(value.Node).ID != int64(n.ID) {
		t.Errorf("multi-label match = %v", res)
	}
}

func TestMatchEmitsDeterministicOrder(t *testing.T) {
	g := graph.New()
	for i := 0; i < 5; i++ {
		g.CreateNode([]string{"N"}, value.Map{"i": value.Int(int64(i))})
	}
	m := matcher(g)
	res, _ := m.Match(patternOf(t, "(x:N)"), Env{})
	for i := 1; i < len(res); i++ {
		prev := res[i-1]["x"].(value.Node).ID
		cur := res[i]["x"].(value.Node).ID
		if prev >= cur {
			t.Fatal("match enumeration must be in ascending id order")
		}
	}
}

// TestVarLengthBesideSingleHops pins the match counts of patterns in
// which a single hop could reuse one of a variable-length path's
// relationships, over a directed 2-cycle and a directed triangle. Under
// Isomorphism the hop must avoid every relationship of the path (and
// the path every relationship of the hop); under Homomorphism only the
// path's own relationships stay distinct. Each count holds for the
// planned walk, the naive walk and a walk anchored at every node slot,
// so the hop is taken both before and after the path.
func TestVarLengthBesideSingleHops(t *testing.T) {
	cycle := func(n int) *graph.Graph {
		g := graph.New()
		var ids []graph.NodeID
		for range n {
			ids = append(ids, g.CreateNode([]string{"N"}, nil).ID)
		}
		for i := range ids {
			if _, err := g.CreateRel(ids[i], ids[(i+1)%n], "T", nil); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	for _, c := range []struct {
		graph      string
		n          int
		pattern    string
		iso, homom int
	}{
		{"2-cycle", 2, `(a)-[*]->(b)-[r]->(c)`, 2, 4},
		{"2-cycle", 2, `(a)-[r]-(b)-[*2..3]-(c)`, 0, 8},
		{"triangle", 3, `(a)-[*]->(b)-[r]->(c)`, 6, 9},
		{"triangle", 3, `(a)-[r]-(b)-[*2..3]-(c)`, 6, 24},
	} {
		g := cycle(c.n)
		for mode, want := range map[Mode]int{Isomorphism: c.iso, Homomorphism: c.homom} {
			walk := func(set func(m *Matcher)) *Matcher {
				m := matcher(g)
				m.Mode = mode
				set(m)
				return m
			}
			walks := map[string]*Matcher{
				"planned": walk(func(*Matcher) {}),
				"naive":   walk(func(m *Matcher) { m.DisablePlan = true }),
			}
			for anchor := range patternOf(t, c.pattern)[0].Nodes {
				walks[fmt.Sprintf("anchor %d", anchor)] = walk(func(m *Matcher) {
					m.ForceAnchor = func(int, *ast.PatternPart) int { return anchor }
				})
			}
			var ref []string
			for name, m := range walks {
				got := multiset(t, m, c.pattern, Env{})
				if len(got) != want {
					t.Errorf("%s %s mode %d %s: %d matches, want %d", c.graph, c.pattern, mode, name, len(got), want)
				}
				if ref == nil {
					ref = got
				} else if strings.Join(got, "\n") != strings.Join(ref, "\n") {
					t.Errorf("%s %s mode %d %s: matches differ from another walk's", c.graph, c.pattern, mode, name)
				}
			}
		}
	}
}
