package graph

import (
	"errors"
	"testing"

	"repro/internal/value"
)

// prop returns the value ps stores under the named key, nil when
// absent.
func prop(g *Graph, ps Props, key string) value.Value {
	v, _ := g.Prop(ps, key)
	return v
}

func TestCreateNode(t *testing.T) {
	g := New()
	n := g.CreateNode([]string{"Product", "New"}, value.Map{"id": value.Int(1), "gone": value.NullValue})
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if !g.HasLabel(n, "Product") || !g.HasLabel(n, "New") || g.HasLabel(n, "User") {
		t.Error("labels wrong")
	}
	if got := g.LabelNames(n); len(got) != 2 || got[0] != "New" || got[1] != "Product" {
		t.Errorf("LabelNames = %v", got)
	}
	if _, has := g.Prop(n.Props, "gone"); has {
		t.Error("null property should not be stored")
	}
	if prop(g, n.Props, "id") != value.Int(1) {
		t.Error("id property missing")
	}
	if ids := g.NodeIDsByLabel("Product"); len(ids) != 1 || ids[0] != n.ID {
		t.Errorf("label index = %v", ids)
	}
}

func TestCreateRelValidation(t *testing.T) {
	g := New()
	a := g.CreateNode(nil, nil)
	b := g.CreateNode(nil, nil)
	if _, err := g.CreateRel(a.ID, b.ID, "", nil); err == nil {
		t.Error("empty type should fail")
	}
	if _, err := g.CreateRel(a.ID, 999, "T", nil); err == nil {
		t.Error("missing target should fail")
	}
	if _, err := g.CreateRel(999, b.ID, "T", nil); err == nil {
		t.Error("missing source should fail")
	}
	r, err := g.CreateRel(a.ID, b.ID, "KNOWS", value.Map{"w": value.Int(2), "nul": value.NullValue})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRels() != 1 {
		t.Fatal("NumRels != 1")
	}
	if _, has := g.Prop(r.Props, "nul"); has {
		t.Error("null rel property stored")
	}
	if out := g.Outgoing(a.ID); len(out) != 1 || out[0] != (AdjEntry{Rel: r.ID, Other: b.ID, Type: r.Type}) {
		t.Errorf("Outgoing = %v", out)
	}
	if in := g.Incoming(b.ID); len(in) != 1 || in[0] != (AdjEntry{Rel: r.ID, Other: a.ID, Type: r.Type}) {
		t.Errorf("Incoming = %v", in)
	}
	if g.Degree(a.ID) != 1 || g.Degree(b.ID) != 1 {
		t.Error("degrees wrong")
	}
}

func TestDeleteNodeStrict(t *testing.T) {
	g := New()
	a := g.CreateNode(nil, nil)
	b := g.CreateNode(nil, nil)
	r, _ := g.CreateRel(a.ID, b.ID, "T", nil)
	err := g.DeleteNode(a.ID)
	var de *DanglingError
	if !errors.As(err, &de) {
		t.Fatalf("DeleteNode with attached rel: got %v, want DanglingError", err)
	}
	g.DeleteRel(r.ID)
	if err := g.DeleteNode(a.ID); err != nil {
		t.Fatalf("DeleteNode after rel removal: %v", err)
	}
	if g.NumNodes() != 1 {
		t.Error("node not deleted")
	}
	// Deleting missing entities is a no-op.
	if err := g.DeleteNode(a.ID); err != nil {
		t.Error("double delete should be no-op")
	}
	g.DeleteRel(r.ID)
}

func TestDeleteNodeUncheckedLeavesDangling(t *testing.T) {
	g := New()
	a := g.CreateNode(nil, nil)
	b := g.CreateNode(nil, nil)
	g.CreateRel(a.ID, b.ID, "T", nil)
	g.DeleteNodeUnchecked(a.ID)
	if err := g.Validate(); err == nil {
		t.Error("Validate should report dangling relationship")
	}
	if g.NumRels() != 1 {
		t.Error("rel should survive unchecked node deletion")
	}
}

func TestDetachDelete(t *testing.T) {
	g := New()
	a := g.CreateNode(nil, nil)
	b := g.CreateNode(nil, nil)
	c := g.CreateNode(nil, nil)
	g.CreateRel(a.ID, b.ID, "T", nil)
	g.CreateRel(c.ID, a.ID, "T", nil)
	g.CreateRel(a.ID, a.ID, "LOOP", nil)
	g.DetachDeleteNode(a.ID)
	if g.NumNodes() != 2 || g.NumRels() != 0 {
		t.Errorf("after detach delete: %d nodes %d rels", g.NumNodes(), g.NumRels())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSetAndRemoveProps(t *testing.T) {
	g := New()
	n := g.CreateNode(nil, nil)
	if err := g.SetNodeProp(n.ID, "x", value.Int(1)); err != nil {
		t.Fatal(err)
	}
	if prop(g, n.Props, "x") != value.Int(1) {
		t.Error("prop not set")
	}
	// Setting null removes.
	if err := g.SetNodeProp(n.ID, "x", value.NullValue); err != nil {
		t.Fatal(err)
	}
	if _, has := g.Prop(n.Props, "x"); has {
		t.Error("null set should remove")
	}
	if err := g.SetNodeProp(999, "x", value.Int(1)); err == nil {
		t.Error("setting prop on missing node should fail")
	}

	a := g.CreateNode(nil, nil)
	r, _ := g.CreateRel(n.ID, a.ID, "T", nil)
	if err := g.SetRelProp(r.ID, "w", value.Float(1.5)); err != nil {
		t.Fatal(err)
	}
	if prop(g, r.Props, "w") != value.Float(1.5) {
		t.Error("rel prop not set")
	}
	if err := g.SetRelProp(r.ID, "w", value.NullValue); err != nil {
		t.Fatal(err)
	}
	if _, has := g.Prop(r.Props, "w"); has {
		t.Error("null rel set should remove")
	}
	if err := g.SetRelProp(999, "w", value.Int(1)); err == nil {
		t.Error("setting prop on missing rel should fail")
	}
}

func TestLabels(t *testing.T) {
	g := New()
	n := g.CreateNode([]string{"A"}, nil)
	if err := g.AddLabel(n.ID, "B"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLabel(n.ID, "B"); err != nil { // idempotent
		t.Fatal(err)
	}
	if len(g.NodeIDsByLabel("B")) != 1 {
		t.Error("label index after add")
	}
	if err := g.RemoveLabel(n.ID, "A"); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveLabel(n.ID, "A"); err != nil { // idempotent
		t.Fatal(err)
	}
	if len(g.NodeIDsByLabel("A")) != 0 {
		t.Error("label index after remove")
	}
	if err := g.AddLabel(999, "X"); err == nil {
		t.Error("AddLabel on missing node should fail")
	}
	if err := g.RemoveLabel(999, "X"); err == nil {
		t.Error("RemoveLabel on missing node should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New()
	a := g.CreateNode([]string{"L"}, value.Map{"x": value.Int(1)})
	b := g.CreateNode(nil, nil)
	g.CreateRel(a.ID, b.ID, "T", nil)

	c := g.Clone()
	c.SetNodeProp(a.ID, "x", value.Int(99))
	c.CreateNode([]string{"Extra"}, nil)
	c.DetachDeleteNode(b.ID)

	if prop(g, g.Node(a.ID).Props, "x") != value.Int(1) {
		t.Error("clone mutation leaked into original (props)")
	}
	if g.NumNodes() != 2 || g.NumRels() != 1 {
		t.Error("clone mutation leaked into original (structure)")
	}
	// IDs continue independently but from the same point.
	n1 := g.CreateNode(nil, nil)
	n2 := c.CreateNode(nil, nil)
	if n1.ID == 0 || n2.ID == 0 {
		t.Error("id assignment broken")
	}
}

func TestNodeIDsSorted(t *testing.T) {
	g := New()
	for i := 0; i < 10; i++ {
		g.CreateNode(nil, nil)
	}
	ids := g.NodeIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("NodeIDs not ascending")
		}
	}
}

func TestJournalRollback(t *testing.T) {
	g := New()
	keep := g.CreateNode([]string{"Keep"}, value.Map{"v": value.Int(1)})
	other := g.CreateNode(nil, nil)
	relKept, _ := g.CreateRel(keep.ID, other.ID, "K", value.Map{"w": value.Int(5)})
	before := Fingerprint(g)

	j := g.BeginJournal()
	// A mix of every mutation kind.
	n := g.CreateNode([]string{"Temp"}, nil)
	g.CreateRel(n.ID, keep.ID, "T", nil)
	g.SetNodeProp(keep.ID, "v", value.Int(2))
	g.SetNodeProp(keep.ID, "new", value.Int(3))
	g.SetRelProp(relKept.ID, "w", value.Int(6))
	g.SetRelProp(relKept.ID, "w2", value.Int(7))
	g.AddLabel(keep.ID, "Added")
	g.RemoveLabel(keep.ID, "Keep")
	g.DeleteRel(relKept.ID)
	g.DetachDeleteNode(other.ID)
	if j.Len() == 0 {
		t.Fatal("journal recorded nothing")
	}
	j.Rollback()

	if after := Fingerprint(g); after != before {
		t.Errorf("rollback did not restore graph:\nbefore %q\nafter  %q", before, after)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate after rollback: %v", err)
	}
	if prop(g, g.Node(keep.ID).Props, "v") != value.Int(1) {
		t.Error("prop not restored")
	}
	if !g.HasLabel(g.Node(keep.ID), "Keep") || g.HasLabel(g.Node(keep.ID), "Added") {
		t.Error("labels not restored")
	}
	if g.Rel(relKept.ID) == nil || prop(g, g.Rel(relKept.ID).Props, "w") != value.Int(5) {
		t.Error("rel not restored")
	}
}

func TestJournalCommit(t *testing.T) {
	g := New()
	j := g.BeginJournal()
	g.CreateNode(nil, nil)
	j.Commit()
	if g.NumNodes() != 1 {
		t.Error("commit dropped changes")
	}
	// A new journal can start after commit.
	j2 := g.BeginJournal()
	g.CreateNode(nil, nil)
	j2.Rollback()
	if g.NumNodes() != 1 {
		t.Error("rollback after commit wrong")
	}
}

func TestNestedJournalPanics(t *testing.T) {
	g := New()
	g.BeginJournal()
	defer func() {
		if recover() == nil {
			t.Error("nested journal should panic")
		}
	}()
	g.BeginJournal()
}
