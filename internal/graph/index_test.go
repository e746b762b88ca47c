package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/value"
)

// rescanIndex recomputes one index's content from a full scan of the
// label, as a map from canonical value keys to sorted node-id slices.
func rescanIndex(g *Graph, key IndexKey) map[string][]NodeID {
	want := make(map[string][]NodeID)
	for _, id := range g.NodeIDsByLabel(key.Label) {
		if v, ok := g.Prop(g.Node(id).Props, key.Prop); ok {
			k := value.Key(v)
			want[k] = append(want[k], id)
		}
	}
	for k := range want {
		ids := want[k]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return want
}

// checkIndexes asserts every index equals a full rescan: same buckets,
// same members, consistent entry count.
func checkIndexes(t *testing.T, g *Graph, ctx string) {
	t.Helper()
	for _, key := range g.Indexes() {
		want := rescanIndex(g, key)
		idx, _ := g.lookupIndex(key.Label, key.Prop)
		if idx.buckets.keys != len(want) {
			t.Fatalf("%s: index %v has %d buckets, rescan has %d", ctx, key, idx.buckets.keys, len(want))
		}
		buckets := 0
		idx.each(func(string, []NodeID) { buckets++ })
		if buckets != idx.buckets.keys {
			t.Fatalf("%s: index %v stores %d buckets but counts %d", ctx, key, buckets, idx.buckets.keys)
		}
		entries := 0
		for k, ids := range want {
			entries += len(ids)
			// Buckets are kept ascending: the rescan's order.
			if set := idx.buckets.bucket(k); !slices.Equal(set, ids) {
				t.Fatalf("%s: index %v bucket %q holds %v, rescan %v", ctx, key, k, set, ids)
			}
		}
		if idx.entries != entries {
			t.Fatalf("%s: index %v entry count %d, rescan %d", ctx, key, idx.entries, entries)
		}
	}
}

// TestIndexIncrementalMatchesRescan drives random mutation sequences —
// node/relationship create/delete (checked, unchecked and detach),
// label add/remove, property writes, index create/drop, and journal
// rollbacks over all of it — and requires every index to equal a full
// rescan after every batch, plus across Clone and a codec round-trip.
func TestIndexIncrementalMatchesRescan(t *testing.T) {
	labels := []string{"A", "B", "C"}
	props := []string{"p", "q"}
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		g.CreateIndex("A", "p") // one index exists from the start
		var nodes []NodeID

		randomLabels := func() []string {
			var out []string
			for _, l := range labels {
				if rng.Intn(2) == 0 {
					out = append(out, l)
				}
			}
			return out
		}
		randomValue := func() value.Value {
			switch rng.Intn(4) {
			case 0:
				return value.Int(int64(rng.Intn(4)))
			case 1:
				return value.Float(float64(rng.Intn(4))) // collides with Int keys
			case 2:
				return value.String("s")
			default:
				return value.NullValue // SET to null removes the property
			}
		}
		pickNode := func() (NodeID, bool) {
			for len(nodes) > 0 {
				i := rng.Intn(len(nodes))
				if g.HasNode(nodes[i]) {
					return nodes[i], true
				}
				nodes = append(nodes[:i], nodes[i+1:]...)
			}
			return 0, false
		}

		mutate := func() {
			switch rng.Intn(12) {
			case 0, 1, 2:
				props := value.Map{}
				if rng.Intn(2) == 0 {
					props["p"] = randomValue()
				}
				if rng.Intn(2) == 0 {
					props["q"] = randomValue()
				}
				n := g.CreateNode(randomLabels(), props)
				nodes = append(nodes, n.ID)
			case 3:
				if a, ok := pickNode(); ok {
					if b, ok2 := pickNode(); ok2 {
						if _, err := g.CreateRel(a, b, "R", nil); err != nil {
							t.Fatal(err)
						}
					}
				}
			case 4:
				if id, ok := pickNode(); ok {
					g.DetachDeleteNode(id)
				}
			case 5:
				if id, ok := pickNode(); ok {
					g.DeleteNodeUnchecked(id)
				}
			case 6, 7:
				if id, ok := pickNode(); ok {
					if err := g.SetNodeProp(id, props[rng.Intn(len(props))], randomValue()); err != nil {
						t.Fatal(err)
					}
				}
			case 8:
				if id, ok := pickNode(); ok {
					if err := g.AddLabel(id, labels[rng.Intn(len(labels))]); err != nil {
						t.Fatal(err)
					}
				}
			case 9:
				if id, ok := pickNode(); ok {
					if err := g.RemoveLabel(id, labels[rng.Intn(len(labels))]); err != nil {
						t.Fatal(err)
					}
				}
			case 10:
				g.CreateIndex(labels[rng.Intn(len(labels))], props[rng.Intn(len(props))])
			case 11:
				g.DropIndex(labels[rng.Intn(len(labels))], props[rng.Intn(len(props))])
			}
		}

		for batch := 0; batch < 40; batch++ {
			useJournal := rng.Intn(3) != 0
			rollback := useJournal && rng.Intn(2) == 0
			var j *Journal
			var before []IndexKey
			if useJournal {
				before = g.Indexes()
				j = g.BeginJournal()
			}
			for i := 0; i < 1+rng.Intn(8); i++ {
				mutate()
			}
			if j != nil {
				if rollback {
					j.Rollback()
					if got := g.Indexes(); !reflect.DeepEqual(got, before) {
						t.Fatalf("seed=%d batch=%d: rollback left index set %v, want %v", seed, batch, got, before)
					}
				} else {
					j.Commit()
				}
			}
			checkIndexes(t, g, fmt.Sprintf("seed=%d batch=%d rollback=%v", seed, batch, rollback))
		}

		checkIndexes(t, g.Clone(), fmt.Sprintf("seed=%d clone", seed))

		// Codec round-trip: definitions persist, contents rebuild. The
		// codec refuses dangling relationships (unchecked deletions), so
		// repair the structural invariant first.
		for _, id := range g.RelIDs() {
			r := g.Rel(id)
			if !g.HasNode(r.Src) || !g.HasNode(r.Tgt) {
				g.DeleteRel(id)
			}
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g2.Indexes(), g.Indexes()) {
			t.Fatalf("seed=%d: codec round-trip changed index set: %v vs %v", seed, g2.Indexes(), g.Indexes())
		}
		checkIndexes(t, g2, fmt.Sprintf("seed=%d codec", seed))
	}
}

// TestIndexLookupSemantics pins the lookup contract: ascending id
// order, numeric key unification (1 and 1.0 share a bucket), empty
// results for unindexed values, and nil for a missing index.
func TestIndexLookupSemantics(t *testing.T) {
	g := New()
	a := g.CreateNode([]string{"U"}, value.Map{"v": value.Int(1)})
	b := g.CreateNode([]string{"U"}, value.Map{"v": value.Float(1.0)})
	g.CreateNode([]string{"U"}, value.Map{"v": value.Int(2)})
	g.CreateNode([]string{"U"}, nil)

	if g.NodeIDsByProp("U", "v", value.Int(1)) != nil {
		t.Fatal("lookup without an index must return nil")
	}
	if !g.CreateIndex("U", "v") {
		t.Fatal("CreateIndex reported no new index")
	}
	if g.CreateIndex("U", "v") {
		t.Fatal("CreateIndex must be idempotent")
	}
	got := g.NodeIDsByProp("U", "v", value.Int(1))
	want := []NodeID{a.ID, b.ID}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NodeIDsByProp = %v, want %v (int/float unified, ascending)", got, want)
	}
	if got := g.NodeIDsByProp("U", "v", value.Float(2.0)); len(got) != 1 {
		t.Fatalf("float seek over int value found %v", got)
	}
	if got := g.NodeIDsByProp("U", "v", value.Int(9)); len(got) != 0 {
		t.Fatalf("absent value found %v", got)
	}
	if avg := g.IndexAvgBucket("U", "v"); avg != 1.5 {
		t.Fatalf("IndexAvgBucket = %v, want 1.5 (3 entries / 2 keys)", avg)
	}
	if avg := g.IndexAvgBucket("U", "zz"); avg != -1 {
		t.Fatalf("IndexAvgBucket without index = %v, want -1", avg)
	}
	if !g.DropIndex("U", "v") {
		t.Fatal("DropIndex reported no index")
	}
	if g.DropIndex("U", "v") {
		t.Fatal("DropIndex of a missing index must report false")
	}
}

// TestIndexSchemaJournalRollback pins the journaled schema operations:
// a rolled-back CREATE INDEX vanishes, a rolled-back DROP INDEX
// rebuilds the index with content equal to a rescan, and the index
// epoch moves on every transition so cached plans invalidate.
func TestIndexSchemaJournalRollback(t *testing.T) {
	g := New()
	g.CreateNode([]string{"U"}, value.Map{"v": value.Int(7)})

	epoch := g.IndexEpoch()
	j := g.BeginJournal()
	g.CreateIndex("U", "v")
	j.Rollback()
	if g.HasIndex("U", "v") {
		t.Fatal("rolled-back CREATE INDEX survived")
	}
	if g.IndexEpoch() == epoch {
		t.Fatal("index epoch unchanged across create+rollback")
	}

	g.CreateIndex("U", "v")
	j = g.BeginJournal()
	g.DropIndex("U", "v")
	g.CreateNode([]string{"U"}, value.Map{"v": value.Int(7)})
	j.Rollback()
	if !g.HasIndex("U", "v") {
		t.Fatal("rolled-back DROP INDEX did not restore the index")
	}
	checkIndexes(t, g, "after drop rollback")
	if got := g.NodeIDsByProp("U", "v", value.Int(7)); len(got) != 1 {
		t.Fatalf("restored index content wrong: %v", got)
	}

	// Statement-level RollbackTo: mutations after the mark are undone in
	// the index too, earlier ones are kept.
	j = g.BeginJournal()
	g.CreateNode([]string{"U"}, value.Map{"v": value.Int(8)})
	mark := j.Mark()
	g.CreateNode([]string{"U"}, value.Map{"v": value.Int(9)})
	if err := g.SetNodeProp(1, "v", value.Int(99)); err != nil {
		t.Fatal(err)
	}
	j.RollbackTo(mark)
	j.Commit()
	checkIndexes(t, g, "after RollbackTo")
	if got := g.NodeIDsByProp("U", "v", value.Int(9)); len(got) != 0 {
		t.Fatalf("post-mark creation survived RollbackTo: %v", got)
	}
	if got := g.NodeIDsByProp("U", "v", value.Int(8)); len(got) != 1 {
		t.Fatalf("pre-mark creation lost by RollbackTo: %v", got)
	}
	if got := g.NodeIDsByProp("U", "v", value.Int(7)); len(got) != 1 {
		t.Fatalf("property write not undone in index: %v", got)
	}
}
