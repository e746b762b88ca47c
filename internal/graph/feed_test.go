package graph

import (
	"reflect"
	"testing"

	"repro/internal/value"
)

// TestCommitDeltaContents pins what the per-epoch delta reports: net
// creations/deletions, prop/label touches on surviving pre-existing
// entities only, and netting of within-transaction churn.
func TestCommitDeltaContents(t *testing.T) {
	g := New()
	keep := g.CreateNode([]string{"K"}, value.Map{"v": value.Int(1)})
	gone := g.CreateNode([]string{"G"}, nil)
	s := NewStore(g)

	w := s.BeginWrite()
	wg := w.Graph()
	created := wg.CreateNode([]string{"N"}, nil)
	// Created-then-deleted churn must cancel entirely, including its
	// label and property writes.
	churn := wg.CreateNode([]string{"C"}, nil)
	if err := wg.SetNodeProp(churn.ID, "x", value.Int(1)); err != nil {
		t.Fatal(err)
	}
	wg.DetachDeleteNode(churn.ID)
	// Prop + label on a surviving pre-existing node.
	if err := wg.SetNodeProp(keep.ID, "v", value.Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := wg.AddLabel(keep.ID, "L"); err != nil {
		t.Fatal(err)
	}
	// Label toggled back and forth nets to nothing.
	if err := wg.AddLabel(keep.ID, "Tmp"); err != nil {
		t.Fatal(err)
	}
	if err := wg.RemoveLabel(keep.ID, "Tmp"); err != nil {
		t.Fatal(err)
	}
	// Deleting a pre-existing node absorbs its prop writes.
	if err := wg.SetNodeProp(gone.ID, "y", value.Int(3)); err != nil {
		t.Fatal(err)
	}
	wg.DetachDeleteNode(gone.ID)
	rel, err := wg.CreateRel(keep.ID, created.ID, "R", nil)
	if err != nil {
		t.Fatal(err)
	}
	wg.CreateIndex("N", "p")
	w.Commit()

	sn := s.Acquire()
	defer sn.Release()
	d := sn.Delta()
	if d == nil {
		t.Fatal("commit with changes produced no delta")
	}
	if d.Epoch != sn.Epoch() || d.Epoch != 1 {
		t.Fatalf("delta epoch %d, snapshot epoch %d", d.Epoch, sn.Epoch())
	}
	if !reflect.DeepEqual(d.NodesCreated, []NodeID{created.ID}) {
		t.Errorf("NodesCreated = %v, want [%d]", d.NodesCreated, created.ID)
	}
	if !reflect.DeepEqual(d.NodesDeleted, []NodeID{gone.ID}) {
		t.Errorf("NodesDeleted = %v, want [%d]", d.NodesDeleted, gone.ID)
	}
	if !reflect.DeepEqual(d.RelsCreated, []RelID{rel.ID}) {
		t.Errorf("RelsCreated = %v, want [%d]", d.RelsCreated, rel.ID)
	}
	if len(d.RelsDeleted) != 0 {
		t.Errorf("RelsDeleted = %v, want empty", d.RelsDeleted)
	}
	if !reflect.DeepEqual(d.PropsTouched, []PropTouch{{Entity: NodeRef(keep.ID), Key: "v"}}) {
		t.Errorf("PropsTouched = %v", d.PropsTouched)
	}
	if !reflect.DeepEqual(d.LabelsAdded, []NodeLabel{{Node: keep.ID, Label: "L"}}) {
		t.Errorf("LabelsAdded = %v", d.LabelsAdded)
	}
	if len(d.LabelsRemoved) != 0 {
		t.Errorf("LabelsRemoved = %v, want empty", d.LabelsRemoved)
	}
	if !reflect.DeepEqual(d.IndexesCreated, []IndexKey{{Label: "N", Prop: "p"}}) {
		t.Errorf("IndexesCreated = %v", d.IndexesCreated)
	}
}

// TestDeltaRollbackAndNoop: rolled-back transactions and no-op commits
// publish epochs without deltas, and statement-level RollbackTo trims
// the corresponding delta entries.
func TestDeltaRollbackAndNoop(t *testing.T) {
	s := NewStore(New())

	w := s.BeginWrite()
	w.Graph().CreateNode([]string{"X"}, nil)
	w.Rollback()
	sn := s.Acquire()
	if sn.Delta() != nil {
		t.Errorf("rolled-back txn carried delta %+v", sn.Delta())
	}
	sn.Release()

	w = s.BeginWrite()
	w.Commit() // no-op transaction
	sn = s.Acquire()
	if sn.Delta() != nil {
		t.Errorf("no-op commit carried delta %+v", sn.Delta())
	}
	sn.Release()

	// Statement rollback inside a committed transaction: only the
	// surviving statement shows up.
	w = s.BeginWrite()
	kept := w.Graph().CreateNode([]string{"X"}, nil)
	mark := w.Journal().Mark()
	w.Graph().CreateNode([]string{"X"}, nil)
	w.Journal().RollbackTo(mark)
	w.Commit()
	sn = s.Acquire()
	defer sn.Release()
	d := sn.Delta()
	if d == nil || !reflect.DeepEqual(d.NodesCreated, []NodeID{kept.ID}) {
		t.Errorf("delta after RollbackTo = %+v, want only node %d", d, kept.ID)
	}
}

// TestOnCommitHookOrderAndScope: hooks fire once per changing commit,
// in epoch order, with or without a pinned reader, and not for
// rollbacks.
func TestOnCommitHookOrderAndScope(t *testing.T) {
	s := NewStore(New())
	var epochs []int64
	var created int
	s.OnCommit(func(d *Delta) {
		epochs = append(epochs, d.Epoch)
		created += len(d.NodesCreated)
	})

	w := s.BeginWrite()
	w.Graph().CreateNode([]string{"A"}, nil)
	w.Commit()

	pin := s.Acquire()
	w = s.BeginWrite()
	w.Graph().CreateNode([]string{"A"}, nil)
	w.Commit()

	w = s.BeginWrite() // rolled back: no hook
	w.Graph().CreateNode([]string{"A"}, nil)
	w.Rollback()
	pin.Release()

	if !reflect.DeepEqual(epochs, []int64{1, 2}) {
		t.Errorf("hook epochs = %v, want [1 2]", epochs)
	}
	if created != 2 {
		t.Errorf("hook saw %d creations, want 2", created)
	}
}
