package graph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"
)

// Ids are never reused, so a long-lived graph that keeps creating and
// deleting entities leaves its id space ever sparser. The dense shards
// must not grow with the ids consumed: a shard is released with its
// last id, so the shards held stay bounded by the live entities.
func TestSparseIDsReleaseShards(t *testing.T) {
	g := New()
	bound := func(live int) int { return live/shardSize + 2 }
	check := func(round int, what string) {
		t.Helper()
		for _, c := range []struct {
			name  string
			live  int
			shard int
		}{
			{"nodes", g.NumNodes(), g.nodes.liveShards()},
			{"rels", g.NumRels(), g.rels.liveShards()},
			{"outgoing", g.NumNodes(), g.outgoing.liveShards()},
			{"incoming", g.NumNodes(), g.incoming.liveShards()},
			{"label", g.NumNodes(), g.byLabel[0].liveShards()},
		} {
			if c.shard > bound(c.live) {
				t.Fatalf("round %d, %s: %s hold %d shards for %d live entries (bound %d)",
					round, what, c.name, c.shard, c.live, bound(c.live))
			}
		}
	}
	const perRound, rounds = 10000, 50
	for round := 0; round < rounds; round++ {
		ids := make([]NodeID, perRound)
		for i := range ids {
			ids[i] = g.CreateNode([]string{"Churn"}, nil).ID
			if i > 0 && i%10 == 0 {
				if _, err := g.CreateRel(ids[i-1], ids[i], "NEXT", nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		check(round, "after create")
		for _, id := range ids {
			g.DetachDeleteNode(id)
		}
		check(round, "after delete")
	}
	if got := int(g.nextNode); got != perRound*rounds {
		t.Fatalf("consumed %d node ids, want %d", got, perRound*rounds)
	}
}

// The id listings come straight out of the shards' bitmaps in ascending
// order: they must be ascending whatever order the ids were written in,
// and must not sort.
func TestIDListingsAscendWithoutSorting(t *testing.T) {
	g := New()
	var ids []NodeID
	for i := 0; i < 3*shardSize; i++ {
		ids = append(ids, g.CreateNode([]string{"A"}, nil).ID)
	}
	// Delete a scattered third, then restore some out of order through
	// the journal, so the shards were written in no particular order.
	j := g.BeginJournal()
	for i := len(ids) - 1; i >= 0; i -= 3 {
		g.DeleteNodeUnchecked(ids[i])
	}
	j.Rollback()
	for i := 0; i < len(ids); i += 7 {
		g.DeleteNodeUnchecked(ids[i])
	}
	for i := 1; i+1 < len(ids); i += 5 {
		if g.HasNode(ids[i]) && g.HasNode(ids[i+1]) {
			if _, err := g.CreateRel(ids[i+1], ids[i], "R", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, got := range map[string][]int64{
		"NodeIDs":        asInt64(g.NodeIDs()),
		"RelIDs":         asInt64(g.RelIDs()),
		"NodeIDsByLabel": asInt64(g.NodeIDsByLabel("A")),
	} {
		if len(got) == 0 || !slices.IsSorted(got) {
			t.Errorf("%s not ascending: %v", name, got)
		}
	}

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "graph.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || !slices.Contains([]string{"NodeIDs", "RelIDs", "NodeIDsByLabel", "NodeIDsByLabelID"}, fn.Name.Name) {
			continue
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "sort" || pkg.Name == "slices") {
					t.Errorf("%s calls %s.%s", fn.Name.Name, pkg.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
}

func asInt64[ID ~int64](ids []ID) []int64 {
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out
}
