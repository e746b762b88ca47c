package graph

import (
	"errors"
	"testing"

	"repro/internal/value"
)

func TestChangeSetConflict(t *testing.T) {
	g := New()
	n := g.CreateNode(nil, nil)
	cs := NewChangeSet()
	if err := cs.SetProp(NodeRef(n.ID), "id", value.Int(1)); err != nil {
		t.Fatal(err)
	}
	// Same value twice: fine (including across Int/Float equivalence).
	if err := cs.SetProp(NodeRef(n.ID), "id", value.Float(1.0)); err != nil {
		t.Fatalf("equivalent re-set should not conflict: %v", err)
	}
	// Different value: conflict (Example 2 of the paper).
	err := cs.SetProp(NodeRef(n.ID), "id", value.Int(2))
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("want ConflictError, got %v", err)
	}
	if ce.Key != "id" {
		t.Errorf("conflict key = %q", ce.Key)
	}
	if ce.Error() == "" {
		t.Error("empty conflict message")
	}
	// Different keys and different entities never conflict.
	if err := cs.SetProp(NodeRef(n.ID), "other", value.Int(9)); err != nil {
		t.Error(err)
	}
	if err := cs.SetProp(NodeRef(n.ID+1), "id", value.Int(7)); err != nil {
		t.Error(err)
	}
}

func TestChangeSetNullConflicts(t *testing.T) {
	cs := NewChangeSet()
	ref := NodeRef(1)
	if err := cs.SetProp(ref, "k", value.NullValue); err != nil {
		t.Fatal(err)
	}
	if err := cs.RemoveProp(ref, "k"); err != nil {
		t.Fatalf("remove after null set should not conflict: %v", err)
	}
	if err := cs.SetProp(ref, "k", value.Int(1)); err == nil {
		t.Error("null vs 1 should conflict")
	}
}

func TestChangeSetApply(t *testing.T) {
	g := New()
	a := g.CreateNode([]string{"Old"}, value.Map{"x": value.Int(1), "y": value.Int(2)})
	b := g.CreateNode(nil, nil)
	kept := g.CreateNode([]string{"Kept"}, nil)
	r, _ := g.CreateRel(a.ID, b.ID, "T", value.Map{"w": value.Int(1)})

	cs := NewChangeSet()
	cs.SetProp(NodeRef(a.ID), "x", value.Int(10))
	cs.RemoveProp(NodeRef(a.ID), "y")
	cs.SetProp(RelRef(r.ID), "w", value.Int(20))
	cs.AddLabel(a.ID, "New")
	cs.RemoveLabel(a.ID, "Old")
	cs.AddLabel(kept.ID, "Kept") // already there: not counted
	cs.RemoveLabel(b.ID, "Old")  // not there: not counted
	p, added, removed, err := cs.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if p != 3 || added != 1 || removed != 1 {
		t.Errorf("Apply counted %d, %d, %d; want 3, 1, 1", p, added, removed)
	}
	if prop(g, g.Node(a.ID).Props, "x") != value.Int(10) {
		t.Error("x not applied")
	}
	if _, has := g.Prop(g.Node(a.ID).Props, "y"); has {
		t.Error("y not removed")
	}
	if prop(g, g.Rel(r.ID).Props, "w") != value.Int(20) {
		t.Error("rel prop not applied")
	}
	if !g.HasLabel(g.Node(a.ID), "New") || g.HasLabel(g.Node(a.ID), "Old") {
		t.Error("labels not applied")
	}
}

func TestChangeSetApplyMissingEntity(t *testing.T) {
	g := New()
	cs := NewChangeSet()
	cs.SetProp(NodeRef(42), "x", value.Int(1))
	if _, _, _, err := cs.Apply(g); err == nil {
		t.Error("apply to missing node should fail")
	}
	cs2 := NewChangeSet()
	cs2.SetProp(RelRef(42), "x", value.Int(1))
	if _, _, _, err := cs2.Apply(g); err == nil {
		t.Error("apply to missing rel should fail")
	}
}

func TestDeleteSetStrictCheck(t *testing.T) {
	g := New()
	u := g.CreateNode([]string{"User"}, nil)
	p := g.CreateNode([]string{"Product"}, nil)
	r, _ := g.CreateRel(u.ID, p.ID, "ORDERED", nil)

	// Deleting u alone must fail the check.
	d := NewDeleteSet()
	d.AddNode(u.ID)
	var de *DanglingError
	if err := d.Check(g); !errors.As(err, &de) {
		t.Fatalf("Check: got %v, want DanglingError", err)
	}

	// Deleting u together with its relationship passes.
	d.AddRel(r.ID)
	if err := d.Check(g); err != nil {
		t.Fatalf("Check with rel included: %v", err)
	}
	if err := d.Apply(g); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1 || g.NumRels() != 0 {
		t.Errorf("after apply: %d nodes %d rels", g.NumNodes(), g.NumRels())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDeleteSetExpand(t *testing.T) {
	g := New()
	a := g.CreateNode(nil, nil)
	b := g.CreateNode(nil, nil)
	c := g.CreateNode(nil, nil)
	g.CreateRel(a.ID, b.ID, "T", nil)
	g.CreateRel(c.ID, a.ID, "T", nil)
	g.CreateRel(b.ID, c.ID, "T", nil) // not incident to a

	d := NewDeleteSet()
	d.AddNode(a.ID)
	d.Expand(g)
	if len(d.Rels()) != 2 {
		t.Errorf("Expand collected %d rels, want 2", len(d.Rels()))
	}
	if err := d.Check(g); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(g); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumRels() != 1 {
		t.Errorf("after apply: %d nodes %d rels", g.NumNodes(), g.NumRels())
	}
}

func TestDeleteSetAccessors(t *testing.T) {
	d := NewDeleteSet()
	d.AddNode(3)
	d.AddNode(1)
	d.AddRel(7)
	if !d.HasNode(3) || d.HasNode(2) || !d.HasRel(7) || d.HasRel(1) {
		t.Error("Has accessors wrong")
	}
	ns := d.Nodes()
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 3 {
		t.Errorf("Nodes = %v", ns)
	}
}
