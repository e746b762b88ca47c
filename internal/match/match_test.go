package match

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/value"
)

// figure1 builds the solid-line part of Figure 1 of the paper and returns
// the graph plus a name->id map.
func figure1() (*graph.Graph, map[string]graph.NodeID) {
	g := graph.New()
	ids := make(map[string]graph.NodeID)
	mk := func(name, label string, props value.Map) {
		ids[name] = g.CreateNode([]string{label}, props).ID
	}
	mk("v1", "Vendor", value.Map{"id": value.Int(60), "name": value.String("cStore")})
	mk("p1", "Product", value.Map{"id": value.Int(125), "name": value.String("laptop")})
	mk("p2", "Product", value.Map{"id": value.Int(125), "name": value.String("notebook")})
	mk("u1", "User", value.Map{"id": value.Int(89), "name": value.String("Bob")})
	mk("u2", "User", value.Map{"id": value.Int(99), "name": value.String("Jane")})
	mk("p3", "Product", value.Map{"id": value.Int(85), "name": value.String("tablet")})
	rel := func(src, tgt, typ string) {
		if _, err := g.CreateRel(ids[src], ids[tgt], typ, nil); err != nil {
			panic(err)
		}
	}
	rel("v1", "p1", "OFFERS")
	rel("v1", "p2", "OFFERS")
	rel("u1", "p1", "ORDERED")
	rel("u1", "p3", "ORDERED")
	rel("u2", "p3", "ORDERED")
	rel("u2", "p2", "ORDERED")
	return g, ids
}

// Env is a record by variable name, as the tests state it; the helpers
// below translate it to and from the iterator's slot rows.
type Env = map[string]value.Value

// testNames is the name table every test pattern and expression
// resolves into, so any of them evaluates over any test row.
var testNames = ast.Names{}

func patternOf(t *testing.T, src string) []*ast.PatternPart {
	t.Helper()
	stmt, err := parser.Parse("MATCH " + src + " RETURN 1")
	if err != nil {
		t.Fatalf("parse pattern %q: %v", src, err)
	}
	parts := stmt.Queries[0].Clauses[0].(*ast.MatchClause).Pattern
	testNames.Pattern(parts)
	return parts
}

// rowOf lays env out as a row over testNames.
func rowOf(env Env) []value.Value {
	for name := range env {
		testNames.Slot(name)
	}
	row := make([]value.Value, len(testNames))
	for name, v := range env {
		row[testNames[name]] = v
	}
	return row
}

// bind makes the slots row binds m's bound slots and returns row.
func bind(m *Matcher, row []value.Value) []value.Value {
	m.Bound = nil
	for s, v := range row {
		if v != nil {
			m.Bound = append(m.Bound, s)
		}
	}
	return row
}

// seed lays env out as a row over testNames and makes its bound slots
// m's.
func seed(m *Matcher, env Env) []value.Value { return bind(m, rowOf(env)) }

// envOf reads a row back as a record of the names it binds.
func envOf(row []value.Value) Env {
	env := Env{}
	for name, s := range testNames {
		if s < len(row) && row[s] != nil {
			env[name] = row[s]
		}
	}
	return env
}

// Match enumerates the matches of parts that extend env, each as a
// record by name.
func (m *Matcher) Match(parts []*ast.PatternPart, env Env) ([]Env, error) {
	var it Iter
	it.Reset(m, parts, seed(m, env), nil)
	var res []Env
	if _, err := it.Next(math.MaxInt, func(row []value.Value) { res = append(res, envOf(row)) }); err != nil {
		return nil, err
	}
	return res, nil
}

func matcher(g *graph.Graph) *Matcher {
	return &Matcher{Graph: g, Ev: &expr.Evaluator{Graph: g}}
}

func TestMatchSingleNode(t *testing.T) {
	g, _ := figure1()
	m := matcher(g)
	res, err := m.Match(patternOf(t, "(p:Product)"), Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Errorf("products = %d, want 3", len(res))
	}
	res, _ = m.Match(patternOf(t, "(p:Product{name:'laptop'})"), Env{})
	if len(res) != 1 {
		t.Errorf("laptop = %d, want 1", len(res))
	}
	res, _ = m.Match(patternOf(t, "(n)"), Env{})
	if len(res) != 6 {
		t.Errorf("all nodes = %d, want 6", len(res))
	}
	res, _ = m.Match(patternOf(t, "(n:Nope)"), Env{})
	if len(res) != 0 {
		t.Errorf("missing label = %d", len(res))
	}
}

// Query (1) of the paper: vendors offering two products, one named laptop.
// The driving table before WHERE has two records; the relationship-
// isomorphism rule excludes p = q.
func TestPaperQuery1Matching(t *testing.T) {
	g, ids := figure1()
	m := matcher(g)
	pat := patternOf(t, "(p:Product)<-[:OFFERS]-(v:Vendor)-[:OFFERS]->(q:Product)")
	res, err := m.Match(pat, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("matches = %d, want 2 (relationship isomorphism)", len(res))
	}
	for _, r := range res {
		p := r["p"].(value.Node)
		q := r["q"].(value.Node)
		if p.ID == q.ID {
			t.Error("p and q must differ under relationship isomorphism")
		}
		if r["v"].(value.Node).ID != int64(ids["v1"]) {
			t.Error("vendor must be v1")
		}
	}
}

func TestHomomorphismAllowsRelReuse(t *testing.T) {
	g, _ := figure1()
	m := matcher(g)
	m.Mode = Homomorphism
	pat := patternOf(t, "(p:Product)<-[:OFFERS]-(v:Vendor)-[:OFFERS]->(q:Product)")
	res, err := m.Match(pat, Env{})
	if err != nil {
		t.Fatal(err)
	}
	// Under homomorphism p=q via the same OFFERS edge is allowed:
	// 2 (distinct) + 2 (p=q over same edge) = 4.
	if len(res) != 4 {
		t.Errorf("homomorphism matches = %d, want 4", len(res))
	}
}

func TestDirections(t *testing.T) {
	g, ids := figure1()
	m := matcher(g)
	out, _ := m.Match(patternOf(t, "(v:Vendor)-[:OFFERS]->(p)"), Env{})
	if len(out) != 2 {
		t.Errorf("outgoing = %d", len(out))
	}
	in, _ := m.Match(patternOf(t, "(p)<-[:OFFERS]-(v:Vendor)"), Env{})
	if len(in) != 2 {
		t.Errorf("incoming = %d", len(in))
	}
	both, _ := m.Match(patternOf(t, "(u:User{id:89})-[:ORDERED]-(p)"), Env{})
	if len(both) != 2 {
		t.Errorf("undirected from u1 = %d", len(both))
	}
	_ = ids
}

func TestSelfLoopUndirectedNoDuplicate(t *testing.T) {
	g := graph.New()
	n := g.CreateNode([]string{"X"}, nil)
	g.CreateRel(n.ID, n.ID, "LOOP", nil)
	m := matcher(g)
	res, _ := m.Match(patternOf(t, "(a:X)-[r]-(b)"), Env{})
	if len(res) != 1 {
		t.Errorf("self loop undirected matches = %d, want 1", len(res))
	}
}

func TestPreBoundVariables(t *testing.T) {
	g, ids := figure1()
	m := matcher(g)
	env := Env{"u": value.Node{ID: int64(ids["u1"])}}
	res, err := m.Match(patternOf(t, "(u)-[:ORDERED]->(p)"), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Errorf("u1 orders = %d, want 2", len(res))
	}
	// Bound to null: no matches, no error.
	res, err = m.Match(patternOf(t, "(u)-[:ORDERED]->(p)"), Env{"u": value.NullValue})
	if err != nil || len(res) != 0 {
		t.Errorf("null binding: %d, %v", len(res), err)
	}
	// Bound to a non-node: error.
	if _, err := m.Match(patternOf(t, "(u)"), Env{"u": value.Int(1)}); err == nil {
		t.Error("non-node binding should error")
	}
	// Bound node must still satisfy labels.
	res, _ = m.Match(patternOf(t, "(u:Vendor)"), env)
	if len(res) != 0 {
		t.Error("bound node should fail label filter")
	}
}

func TestSharedVariableJoin(t *testing.T) {
	g, _ := figure1()
	m := matcher(g)
	// Two parts sharing p: vendors and users connected through a product.
	pat := patternOf(t, "(v:Vendor)-[:OFFERS]->(p), (u:User)-[:ORDERED]->(p)")
	res, err := m.Match(pat, Env{})
	if err != nil {
		t.Fatal(err)
	}
	// v1 offers p1 (ordered by u1) and p2 (ordered by u2): 2 joins.
	if len(res) != 2 {
		t.Errorf("join matches = %d, want 2", len(res))
	}
}

func TestRelVariableAndTypeAlternatives(t *testing.T) {
	g, _ := figure1()
	m := matcher(g)
	res, err := m.Match(patternOf(t, "(a)-[r:OFFERS|ORDERED]->(b)"), Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Errorf("typed rels = %d, want 6", len(res))
	}
	for _, e := range res {
		if _, ok := e["r"].(value.Rel); !ok {
			t.Fatal("r not bound to a relationship")
		}
	}
}

func TestRelPropsFilter(t *testing.T) {
	g := graph.New()
	a := g.CreateNode(nil, nil)
	b := g.CreateNode(nil, nil)
	g.CreateRel(a.ID, b.ID, "T", value.Map{"w": value.Int(1)})
	g.CreateRel(a.ID, b.ID, "T", value.Map{"w": value.Int(2)})
	m := matcher(g)
	res, _ := m.Match(patternOf(t, "(a)-[r:T{w:2}]->(b)"), Env{})
	if len(res) != 1 {
		t.Errorf("prop-filtered rels = %d, want 1", len(res))
	}
	// A null-valued pattern property never matches (ternary equality).
	res, _ = m.Match(patternOf(t, "(a)-[r:T{w:null}]->(b)"), Env{})
	if len(res) != 0 {
		t.Errorf("null prop filter matched %d", len(res))
	}
}

func TestVarLength(t *testing.T) {
	// Chain a->b->c->d.
	g := graph.New()
	var ids []graph.NodeID
	for i := 0; i < 4; i++ {
		ids = append(ids, g.CreateNode([]string{"N"}, value.Map{"i": value.Int(int64(i))}).ID)
	}
	for i := 0; i < 3; i++ {
		g.CreateRel(ids[i], ids[i+1], "NEXT", nil)
	}
	m := matcher(g)

	res, err := m.Match(patternOf(t, "(a{i:0})-[:NEXT*]->(b)"), Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Errorf("*: %d paths, want 3", len(res))
	}
	res, _ = m.Match(patternOf(t, "(a{i:0})-[:NEXT*2]->(b)"), Env{})
	if len(res) != 1 {
		t.Errorf("*2: %d, want 1", len(res))
	}
	res, _ = m.Match(patternOf(t, "(a{i:0})-[:NEXT*1..2]->(b)"), Env{})
	if len(res) != 2 {
		t.Errorf("*1..2: %d, want 2", len(res))
	}
	res, _ = m.Match(patternOf(t, "(a{i:0})-[:NEXT*0..]->(b)"), Env{})
	if len(res) != 4 {
		t.Errorf("*0..: %d, want 4 (incl. empty path)", len(res))
	}
	// Var-length var binds to the list of relationships.
	res, _ = m.Match(patternOf(t, "(a{i:0})-[rs:NEXT*2]->(b)"), Env{})
	if lst, ok := res[0]["rs"].(value.List); !ok || len(lst) != 2 {
		t.Errorf("rs binding = %#v", res[0]["rs"])
	}
}

// The paper's Section 2 example: MATCH (v)-[*]->(v) over a single loop
// must terminate and return finitely many results thanks to relationship
// isomorphism.
func TestVarLengthLoopTerminates(t *testing.T) {
	g := graph.New()
	v := g.CreateNode(nil, nil)
	g.CreateRel(v.ID, v.ID, "L", nil)
	m := matcher(g)
	res, err := m.Match(patternOf(t, "(v)-[*]->(v)"), Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("loop paths = %d, want 1", len(res))
	}
}

func TestIsomorphismAcrossParts(t *testing.T) {
	g := graph.New()
	a := g.CreateNode(nil, nil)
	b := g.CreateNode(nil, nil)
	g.CreateRel(a.ID, b.ID, "T", nil)
	m := matcher(g)
	// Two rel slots, only one relationship: no iso match, one homo match
	// per orientation combination.
	pat := patternOf(t, "(a)-[r1:T]->(b), (c)-[r2:T]->(d)")
	res, _ := m.Match(pat, Env{})
	if len(res) != 0 {
		t.Errorf("iso: %d, want 0", len(res))
	}
	m.Mode = Homomorphism
	res, _ = m.Match(pat, Env{})
	if len(res) != 1 {
		t.Errorf("homo: %d, want 1", len(res))
	}
}

func TestNamedPathBinding(t *testing.T) {
	g, ids := figure1()
	m := matcher(g)
	res, err := m.Match(patternOf(t, "pth = (u:User{id:89})-[:ORDERED]->(p{name:'laptop'})"), Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("path matches = %d", len(res))
	}
	pth, ok := res[0]["pth"].(value.Path)
	if !ok {
		t.Fatalf("pth = %#v", res[0]["pth"])
	}
	if len(pth.Nodes) != 2 || len(pth.Rels) != 1 {
		t.Errorf("path shape: %v", pth)
	}
	if pth.Nodes[0] != int64(ids["u1"]) {
		t.Error("path start")
	}
}

func TestPatternVariables(t *testing.T) {
	pat := patternOf(t, "pth = (a)-[r:T]->(b), (a)-[:U]->(c)")
	vars := PatternVariables(pat)
	want := []string{"pth", "a", "r", "b", "c"}
	if len(vars) != len(want) {
		t.Fatalf("vars = %v", vars)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("vars = %v, want %v", vars, want)
		}
	}
}

func TestPropsReferencingEarlierBindings(t *testing.T) {
	g := graph.New()
	a := g.CreateNode([]string{"A"}, value.Map{"k": value.Int(7)})
	b := g.CreateNode([]string{"B"}, value.Map{"k": value.Int(7)})
	c := g.CreateNode([]string{"B"}, value.Map{"k": value.Int(8)})
	g.CreateRel(a.ID, b.ID, "T", nil)
	g.CreateRel(a.ID, c.ID, "T", nil)
	m := matcher(g)
	// The far node's property map references the first node's binding.
	res, err := m.Match(patternOf(t, "(x:A)-[:T]->(y:B{k: x.k})"), Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("dependent props matches = %d, want 1", len(res))
	}
}

// TestRepeatedInlineKeyLastWins pins how an inline property map with a
// repeated key compares: the key counts once, at its last value, as in
// the map the literal evaluates to — on the label scan and on an index
// seek from the inline map alike.
func TestRepeatedInlineKeyLastWins(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		g := graph.New()
		one := g.CreateNode([]string{"L"}, value.Map{"k": value.Int(1)})
		two := g.CreateNode([]string{"L"}, value.Map{"k": value.Int(2)})
		if indexed {
			g.CreateIndex("L", "k")
		}
		for _, c := range []struct {
			pattern string
			want    graph.NodeID
		}{
			{`(n:L{k:1,k:2})`, two.ID},
			{`(n:L{k:2,k:1})`, one.ID},
		} {
			m := matcher(g)
			if d := m.DescribePlan(patternOf(t, c.pattern)); strings.Contains(d, "index-seek") != indexed {
				t.Fatalf("indexed=%v %s: plan %s", indexed, c.pattern, d)
			}
			res, err := m.Match(patternOf(t, c.pattern), Env{})
			if err != nil {
				t.Fatalf("indexed=%v %s: %v", indexed, c.pattern, err)
			}
			if len(res) != 1 || res[0]["n"] != (value.Node{ID: int64(c.want)}) {
				t.Errorf("indexed=%v %s: got %v, want node %d", indexed, c.pattern, res, c.want)
			}
		}
	}
}

// TestMatchResultsIndependent checks that the maps Matcher.Match
// returns share nothing: writing one changes no other result and not
// the seed.
func TestMatchResultsIndependent(t *testing.T) {
	g, _ := figure1()
	seed := Env{"k": value.Int(7)}
	res, err := matcher(g).Match(patternOf(t, "(u:User)-[:ORDERED]->(p)"), seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 2 {
		t.Fatalf("want at least two matches, got %d", len(res))
	}
	before := make([]string, len(res))
	for i, e := range res {
		before[i] = envKey(e)
	}
	res[0]["k"] = value.Int(8)
	res[0]["u"] = value.NullValue
	res[0]["extra"] = value.Int(1)
	for i, e := range res[1:] {
		if envKey(e) != before[i+1] {
			t.Errorf("match %d changed with match 0: %s, was %s", i+1, envKey(e), before[i+1])
		}
	}
	if seed["k"] != value.Int(7) || len(seed) != 1 {
		t.Errorf("seed changed: %v", seed)
	}
}

// TestPreBoundPathVariable pins a part that rebinds a path variable the
// seed already binds: every candidate the part checks, before it binds
// the path, reads the seed's value, exactly as it would read another
// variable bound to that value.
func TestPreBoundPathVariable(t *testing.T) {
	g, _, _ := resumeGraph()
	for _, naive := range []bool{false, true} {
		m := matcher(g)
		m.DisablePlan = naive
		rows := func(pattern string, env Env) []string {
			res, err := m.Match(patternOf(t, pattern), env)
			if err != nil {
				t.Fatalf("%s: %v", pattern, err)
			}
			var out []string
			for _, e := range res {
				out = append(out, fmt.Sprint(e["x"], e["y"], e["p"]))
			}
			sort.Strings(out)
			return out
		}
		got := rows(`p = (x:A)-[:T {w: p}]->(y)`, Env{"p": value.Int(1)})
		want := rows(`p = (x:A)-[:T {w: q}]->(y)`, Env{"p": value.Int(1), "q": value.Int(1)})
		if len(want) < 2 || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("naive=%v: got %d matches, want %d:\n%s\nwant\n%s", naive, len(got), len(want), strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
