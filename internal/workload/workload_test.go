package workload

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

func TestMarketplaceBuild(t *testing.T) {
	m := DefaultMarketplace()
	g := m.Build()
	if g.NumNodes() != m.Vendors+m.Products+m.Users {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	wantRels := m.Vendors*m.OffersPerVendor + m.Users*m.OrdersPerUser
	if g.NumRels() != wantRels {
		t.Errorf("rels = %d, want %d", g.NumRels(), wantRels)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if len(g.NodeIDsByLabel("Vendor")) != m.Vendors {
		t.Error("vendor label index")
	}
}

func TestMarketplaceDeterminism(t *testing.T) {
	a := DefaultMarketplace().Build()
	b := DefaultMarketplace().Build()
	if graph.Fingerprint(a) != graph.Fingerprint(b) {
		t.Error("same seed must build the same graph")
	}
	m2 := DefaultMarketplace()
	m2.Seed = 99
	c := m2.Build()
	if graph.Fingerprint(a) == graph.Fingerprint(c) {
		t.Error("different seed should change the graph")
	}
}

func TestOrderImportBuild(t *testing.T) {
	o := DefaultOrderImport(1000)
	tbl := o.Build()
	if tbl.Len() != 1000 {
		t.Fatalf("rows = %d", tbl.Len())
	}
	nulls := 0
	for i := 0; i < tbl.Len(); i++ {
		if value.IsNull(tbl.Get(i, "pid")) {
			nulls++
			if !value.IsNull(tbl.Get(i, "date")) {
				t.Fatal("null pid row must have null date (Example 5 shape)")
			}
		}
	}
	if nulls < 100 || nulls > 350 {
		t.Errorf("null rows = %d, want ~20%% of 1000", nulls)
	}
}

func TestClickstreamBuild(t *testing.T) {
	c := Clickstream{Sessions: 10, PathLen: 5, Products: 4, Seed: 2}
	g, tbl := c.Build()
	if g.NumNodes() != 4 || g.NumRels() != 0 {
		t.Errorf("graph: %d/%d", g.NumNodes(), g.NumRels())
	}
	if tbl.Len() != 10 || len(tbl.Columns()) != 6 {
		t.Errorf("table: %d rows, %d cols", tbl.Len(), len(tbl.Columns()))
	}
	q := c.PathQuery()
	want := "(v0)-[:TO]->(v1)-[:TO]->(v2)-[:TO]->(v3)-[:TO]->(v4)-[:BOUGHT]->(tgt)"
	if q != want {
		t.Errorf("PathQuery = %q", q)
	}
}

func TestMergePathsBuild(t *testing.T) {
	w := MergePaths{Rows: 50, Users: 5, Products: 3, Vendors: 2, Seed: 3}
	g, tbl := w.Build()
	if g.NumNodes() != 10 || g.NumRels() != 0 {
		t.Errorf("graph: %d/%d", g.NumNodes(), g.NumRels())
	}
	if tbl.Len() != 50 {
		t.Errorf("rows = %d", tbl.Len())
	}
	for i := 0; i < tbl.Len(); i++ {
		if _, ok := tbl.Get(i, "user").(value.Node); !ok {
			t.Fatal("user column must hold nodes")
		}
	}
}

func TestShuffle(t *testing.T) {
	p := Shuffle(10, 1)
	q := Shuffle(10, 1)
	for i := range p {
		if p[i] != q[i] {
			t.Fatal("same seed must give same permutation")
		}
	}
	seen := make([]bool, 10)
	for _, i := range p {
		seen[i] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("not a permutation: missing %d", i)
		}
	}
}

func TestStatementsDeterministic(t *testing.T) {
	draw := func(revised bool) string {
		s := NewStatements(7, revised)
		out := strings.Join(s.Setup(), "\n")
		for i := 0; i < 20; i++ {
			out += "\n" + s.Read() + "\n" + s.Update() + "\n" + s.TableUpdate("k", "v") + "\n" + s.Table("k", "v").String()
		}
		return out
	}
	for _, revised := range []bool{false, true} {
		if a, b := draw(revised), draw(revised); a != b {
			t.Errorf("revised=%v: same seed must draw the same statements", revised)
		}
	}
	if strings.Contains(draw(true), "ON CREATE") || strings.Contains(draw(false), "MERGE ALL") {
		t.Error("MERGE forms leaked across dialects")
	}
}
