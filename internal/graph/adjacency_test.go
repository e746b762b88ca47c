package graph

import (
	"bytes"
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func sortedAscending(row []AdjEntry) bool {
	return slices.IsSortedFunc(row, func(x, y AdjEntry) int { return cmp.Compare(x.Rel, y.Rel) })
}

// Adjacency lists are maintained sorted on insert so Outgoing/Incoming
// can return the cached slice without a per-call sort-copy. The
// invariant must survive interleaved creation, deletion, rollback
// restore, and codec round-trips.
func TestAdjacencyStaysSorted(t *testing.T) {
	g := New()
	hub := g.CreateNode([]string{"Hub"}, nil)
	var rels []RelID
	for i := 0; i < 20; i++ {
		other := g.CreateNode(nil, nil)
		r, err := g.CreateRel(hub.ID, other.ID, "T", nil)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r.ID)
	}
	if !sortedAscending(g.Outgoing(hub.ID)) {
		t.Fatal("outgoing unsorted after creation")
	}

	// Delete some middle relationships inside a journal, create new ones
	// (higher ids), then roll back: the restore path must insert the old
	// ids back into sorted position, not append them.
	j := g.BeginJournal()
	g.DeleteRel(rels[3])
	g.DeleteRel(rels[10])
	other := g.CreateNode(nil, nil)
	if _, err := g.CreateRel(hub.ID, other.ID, "T", nil); err != nil {
		t.Fatal(err)
	}
	if !sortedAscending(g.Outgoing(hub.ID)) {
		t.Fatal("outgoing unsorted mid-statement")
	}
	j.Rollback()
	out := g.Outgoing(hub.ID)
	if !sortedAscending(out) {
		t.Fatalf("outgoing unsorted after rollback: %v", out)
	}
	if len(out) != 20 {
		t.Fatalf("outgoing len = %d, want 20", len(out))
	}

	// Committed deletions keep order too.
	g.DeleteRel(rels[0])
	g.DeleteRel(rels[19])
	if !sortedAscending(g.Outgoing(hub.ID)) {
		t.Fatal("outgoing unsorted after deletions")
	}
	if !sortedAscending(g.Incoming(hub.ID)) {
		t.Fatal("incoming unsorted")
	}
}

func TestDetachDeleteWithSharedAdjacency(t *testing.T) {
	g := New()
	a := g.CreateNode(nil, nil)
	b := g.CreateNode(nil, nil)
	var rels []RelID
	for i := 0; i < 5; i++ {
		r, err := g.CreateRel(a.ID, b.ID, "T", nil)
		if err != nil {
			t.Fatal(err)
		}
		u, err := g.CreateRel(b.ID, a.ID, "U", nil)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r.ID, u.ID)
	}
	// Self-loops exercise the same-list mutation path.
	if _, err := g.CreateRel(a.ID, a.ID, "S", nil); err != nil {
		t.Fatal(err)
	}

	// A reader pins the hub's rows; the writer deletes relationships on
	// the shared hub, restores them by rolling back, deletes them again
	// and commits. The pinned rows must not change at any point.
	store := NewStore(g)
	pin := store.Acquire()
	defer pin.Release()
	pg := pin.Graph()
	pinned := func() [4][]AdjEntry {
		return [4][]AdjEntry{slices.Clone(pg.Outgoing(a.ID)), slices.Clone(pg.Incoming(a.ID)), slices.Clone(pg.Outgoing(b.ID)), slices.Clone(pg.Incoming(b.ID))}
	}
	before := pinned()
	w := store.BeginWrite()
	wg := w.Graph()
	mark := w.Journal().Mark()
	for _, rid := range rels[2:7] {
		wg.DeleteRel(rid)
	}
	if !reflect.DeepEqual(pinned(), before) {
		t.Fatal("pinned rows changed under the writer's deletes")
	}
	w.Journal().RollbackTo(mark)
	checkRowsRebuilt(t, wg, "writer after rollback")
	wg.DetachDeleteNode(a.ID)
	if !reflect.DeepEqual(pinned(), before) {
		t.Fatal("pinned rows changed under the writer's restore and detach delete")
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pinned(), before) {
		t.Fatal("pinned rows changed after the writer committed")
	}
	checkRowsRebuilt(t, pg, "pinned snapshot")
	if err := pg.Validate(); err != nil {
		t.Fatal(err)
	}

	after := store.Acquire()
	defer after.Release()
	if err := after.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	if ng := after.Graph(); ng.NumRels() != 0 || ng.NumNodes() != 1 {
		t.Fatalf("got %d nodes / %d rels after detach delete", ng.NumNodes(), ng.NumRels())
	}
}

// Entries are derived state: after journal rollback, a codec round
// trip and Clone, every row must equal a rebuild from the
// relationships, types and far ends included.
func TestAdjacencyEntriesMatchRebuild(t *testing.T) {
	g := New()
	var nodes []NodeID
	for i := 0; i < 6; i++ {
		nodes = append(nodes, g.CreateNode(nil, nil).ID)
	}
	types := []string{"A", "B", "C"}
	var rels []RelID
	for i := 0; i < 30; i++ {
		src, tgt := nodes[i%6], nodes[(i*7)%6]
		r, err := g.CreateRel(src, tgt, types[i%3], nil)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r.ID)
	}
	j := g.BeginJournal()
	for _, rid := range rels[5:20] {
		g.DeleteRel(rid)
	}
	g.DetachDeleteNode(nodes[2])
	if _, err := g.CreateRel(nodes[0], nodes[1], "D", nil); err != nil {
		t.Fatal(err)
	}
	checkRowsRebuilt(t, g, "mid-statement")
	j.Rollback()
	checkRowsRebuilt(t, g, "after rollback")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	checkRowsRebuilt(t, g.Clone(), "clone")
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkRowsRebuilt(t, dec, "decoded")
	for _, id := range g.NodeIDs() {
		if !entriesEqual(g, dec, g.Outgoing(id), dec.Outgoing(id)) || !entriesEqual(g, dec, g.Incoming(id), dec.Incoming(id)) {
			t.Fatalf("node %d: decoded rows differ", id)
		}
	}
}

// Validate reads the rows too: an entry whose far end, type or
// presence disagrees with its relationship is reported.
func TestValidateChecksAdjacency(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(g *Graph, a, b NodeID, r RelID)
		want  string
	}{
		{"wrong far end", func(g *Graph, a, b NodeID, r RelID) {
			g.adjWritable(&g.outgoing, a).entries[0].Other = a
		}, "does not match"},
		{"wrong type", func(g *Graph, a, b NodeID, r RelID) {
			g.adjWritable(&g.incoming, b).entries[0].Type = g.intern("OTHER")
		}, "does not match"},
		{"missing entry", func(g *Graph, a, b NodeID, r RelID) {
			g.adjRemove(&g.incoming, b, r)
		}, "in rows hold 0 entries for 1 relationships"},
		{"entry of a deleted relationship", func(g *Graph, a, b NodeID, r RelID) {
			g.rels.del(g.tag, int64(r))
			g.adjRemove(&g.incoming, b, r)
		}, "names missing relationship"},
		{"duplicate entry", func(g *Graph, a, b NodeID, r RelID) {
			row := g.adjWritable(&g.outgoing, a)
			row.entries = append(row.entries, row.entries[0])
		}, "not strictly ascending"},
	} {
		g := New()
		a, b := g.CreateNode(nil, nil).ID, g.CreateNode(nil, nil).ID
		r, err := g.CreateRel(a, b, "T", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: before planting: %v", tc.name, err)
		}
		tc.plant(g, a, b, r.ID)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
	}
}
