package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/value"
)

// graphsEqual asserts two graphs hold identical content: same entities
// under the same ids with equal labels/properties, same adjacency, same
// label index, same schema, same statistics, same id counters. This is
// strict equality (not isomorphism): the copy-on-write commit and its
// deep-clone reference must agree bit-for-bit on observable state.
func graphsEqual(t *testing.T, a, b *Graph, ctx string) {
	t.Helper()
	if got, want := a.NodeIDs(), b.NodeIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: node ids %v vs %v", ctx, got, want)
	}
	for _, id := range a.NodeIDs() {
		na, nb := a.Node(id), b.Node(id)
		if la, lb := a.LabelNames(na), b.LabelNames(nb); !reflect.DeepEqual(la, lb) {
			t.Fatalf("%s: node %d labels %v vs %v", ctx, id, la, lb)
		}
		if pa, pb := a.PropMap(na.Props), b.PropMap(nb.Props); !reflect.DeepEqual(pa, pb) {
			t.Fatalf("%s: node %d props %v vs %v", ctx, id, pa, pb)
		}
		if !entriesEqual(a, b, a.Outgoing(id), b.Outgoing(id)) {
			t.Fatalf("%s: node %d outgoing %v vs %v", ctx, id, a.Outgoing(id), b.Outgoing(id))
		}
		if !entriesEqual(a, b, a.Incoming(id), b.Incoming(id)) {
			t.Fatalf("%s: node %d incoming %v vs %v", ctx, id, a.Incoming(id), b.Incoming(id))
		}
	}
	if got, want := a.RelIDs(), b.RelIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: rel ids %v vs %v", ctx, got, want)
	}
	for _, id := range a.RelIDs() {
		ra, rb := a.Rel(id), b.Rel(id)
		if a.TypeName(ra) != b.TypeName(rb) || ra.Src != rb.Src || ra.Tgt != rb.Tgt {
			t.Fatalf("%s: rel %d shape (%s %d->%d) vs (%s %d->%d)",
				ctx, id, a.TypeName(ra), ra.Src, ra.Tgt, b.TypeName(rb), rb.Src, rb.Tgt)
		}
		if pa, pb := a.PropMap(ra.Props), b.PropMap(rb.Props); !reflect.DeepEqual(pa, pb) {
			t.Fatalf("%s: rel %d props %v vs %v", ctx, id, pa, pb)
		}
	}
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Fatalf("%s: stats %+v vs %+v", ctx, a.Stats(), b.Stats())
	}
	if !reflect.DeepEqual(a.Indexes(), b.Indexes()) {
		t.Fatalf("%s: index sets %v vs %v", ctx, a.Indexes(), b.Indexes())
	}
	if a.nextNode != b.nextNode || a.nextRel != b.nextRel {
		t.Fatalf("%s: id counters (%d,%d) vs (%d,%d)", ctx, a.nextNode, a.nextRel, b.nextNode, b.nextRel)
	}
}

// relIDsEqual compares adjacency lists element-wise, treating nil and
// empty as equal (a copied-then-emptied row and a never-present row are
// the same observable state).
// entriesEqual compares two adjacency rows of graphs a and b, whose
// symbol tables may number the same type differently.
func entriesEqual(a, b *Graph, ea, eb []AdjEntry) bool {
	return slices.EqualFunc(ea, eb, func(x, y AdjEntry) bool {
		return x.Rel == y.Rel && x.Other == y.Other && a.SymName(x.Type) == b.SymName(y.Type)
	})
}

// rebuiltRows recomputes every adjacency row from the relationships
// alone, in ascending id order: what incremental maintenance must hold.
func rebuiltRows(g *Graph) (out, in map[NodeID][]AdjEntry) {
	out, in = map[NodeID][]AdjEntry{}, map[NodeID][]AdjEntry{}
	for _, id := range g.RelIDs() {
		r := g.Rel(id)
		out[r.Src] = append(out[r.Src], AdjEntry{Rel: id, Other: r.Tgt, Type: r.Type})
		in[r.Tgt] = append(in[r.Tgt], AdjEntry{Rel: id, Other: r.Src, Type: r.Type})
	}
	return out, in
}

// checkRowsRebuilt asserts g's non-empty adjacency rows equal a
// from-scratch rebuild from its relationships.
func checkRowsRebuilt(t *testing.T, g *Graph, ctx string) {
	t.Helper()
	out, in := rebuiltRows(g)
	for _, side := range []struct {
		name string
		rows *idMap[*adjRow]
		want map[NodeID][]AdjEntry
	}{{"out", &g.outgoing, out}, {"in", &g.incoming, in}} {
		got := map[NodeID][]AdjEntry{}
		side.rows.each(func(id int64, row *adjRow) {
			if len(row.entries) > 0 {
				got[NodeID(id)] = row.entries
			}
		})
		if !reflect.DeepEqual(got, side.want) {
			t.Fatalf("%s: %s rows %v, rebuilt %v", ctx, side.name, got, side.want)
		}
	}
}

// checkGraphInvariants asserts the incrementally maintained structures
// of one graph agree with a from-scratch recount.
func checkGraphInvariants(t *testing.T, g *Graph, ctx string) {
	t.Helper()
	want := ComputeStats(g)
	got := g.Stats()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: incremental stats %+v, recount %+v", ctx, got, want)
	}
	checkIndexes(t, g, ctx)
	checkRowsRebuilt(t, g, ctx)
}

// cowTestOps returns the operation generator shared by the equivalence
// test: each call decides one mutation using rng and the probe graph's
// current state, then applies the identical mutation to every target.
// Because all targets hold identical content and identical id counters,
// created ids and error outcomes match across them by construction.
func cowTestOps(t *testing.T, rng *rand.Rand, probe func() *Graph, targets func() []*Graph) func() {
	t.Helper()
	labels := []string{"A", "B", "C"}
	props := []string{"p", "q"}
	randomValue := func() value.Value {
		switch rng.Intn(4) {
		case 0:
			return value.Int(int64(rng.Intn(4)))
		case 1:
			return value.Float(float64(rng.Intn(4)))
		case 2:
			return value.String("s")
		default:
			return value.NullValue
		}
	}
	pickNode := func() (NodeID, bool) {
		ids := probe().NodeIDs()
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	pickRel := func() (RelID, bool) {
		ids := probe().RelIDs()
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	return func() {
		switch rng.Intn(14) {
		case 0, 1, 2:
			var ls []string
			for _, l := range labels {
				if rng.Intn(2) == 0 {
					ls = append(ls, l)
				}
			}
			pm := value.Map{}
			if rng.Intn(2) == 0 {
				pm["p"] = randomValue()
			}
			for _, g := range targets() {
				g.CreateNode(ls, pm)
			}
		case 3, 4:
			a, ok1 := pickNode()
			b, ok2 := pickNode()
			if ok1 && ok2 {
				pm := value.Map{"w": randomValue()}
				for _, g := range targets() {
					if _, err := g.CreateRel(a, b, "R", pm); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 5:
			if id, ok := pickRel(); ok {
				for _, g := range targets() {
					g.DeleteRel(id)
				}
			}
		case 6:
			if id, ok := pickNode(); ok {
				for _, g := range targets() {
					g.DetachDeleteNode(id)
				}
			}
		case 7:
			// Checked delete: errors (still-attached relationships) must
			// agree across targets — same state, same outcome.
			if id, ok := pickNode(); ok {
				var errs []error
				for _, g := range targets() {
					errs = append(errs, g.DeleteNode(id))
				}
				for _, e := range errs[1:] {
					if (e == nil) != (errs[0] == nil) {
						t.Fatalf("DeleteNode(%d) outcomes diverged: %v vs %v", id, errs[0], e)
					}
				}
			}
		case 8, 9:
			if id, ok := pickNode(); ok {
				k, v := props[rng.Intn(len(props))], randomValue()
				for _, g := range targets() {
					if err := g.SetNodeProp(id, k, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 10:
			if id, ok := pickRel(); ok {
				v := randomValue()
				for _, g := range targets() {
					if err := g.SetRelProp(id, "w", v); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 11:
			if id, ok := pickNode(); ok {
				l := labels[rng.Intn(len(labels))]
				for _, g := range targets() {
					if err := g.AddLabel(id, l); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 12:
			if id, ok := pickNode(); ok {
				l := labels[rng.Intn(len(labels))]
				for _, g := range targets() {
					if err := g.RemoveLabel(id, l); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 13:
			l, p := labels[rng.Intn(len(labels))], props[rng.Intn(len(props))]
			if rng.Intn(2) == 0 {
				for _, g := range targets() {
					g.CreateIndex(l, p)
				}
			} else {
				for _, g := range targets() {
					g.DropIndex(l, p)
				}
			}
		}
	}
}

// TestCommitPathsEquivalent is the acceptance property test for the
// copy-on-write commit pipeline: the store's writer (a cloneCOW of the
// published epoch, with a reader pinned for the whole transaction) and
// a deep-clone-per-transaction reference must produce identical
// published graphs across random sequences of mutations, schema
// operations, statement-level rollbacks (journal marks) and whole-
// transaction rollbacks. A concurrent reader iterates the pinned
// snapshot throughout, so `-race` verifies the writer never touches
// structure a reader can see.
func TestCommitPathsEquivalent(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := NewStore(New())
			ref := New() // deep-clone commit reference
			// The reference's id high-water mark: ids consumed by a
			// transaction that published nothing stay consumed.
			var refNextNode NodeID
			var refNextRel RelID

			for txn := 0; txn < 30; txn++ {
				ctx := fmt.Sprintf("seed=%d txn=%d", seed, txn)

				pin := s.Acquire()
				preNodes := pin.Graph().NumNodes()

				w := s.BeginWrite()
				if w.Graph() == pin.Graph() {
					t.Fatal("writer works on the published graph")
				}
				refWork := ref.Clone()
				refWork.nextNode = max(refWork.nextNode, refNextNode)
				refWork.nextRel = max(refWork.nextRel, refNextRel)
				refJ := refWork.BeginJournal()

				// A concurrent reader hammers the pinned snapshot while
				// the writer mutates its clone.
				stop := make(chan struct{})
				done := make(chan struct{})
				go func() {
					defer close(done)
					for {
						select {
						case <-stop:
							return
						default:
						}
						for _, id := range pin.Graph().NodeIDs() {
							_ = pin.Graph().LabelNames(pin.Graph().Node(id))
							_ = pin.Graph().Outgoing(id)
						}
						_ = pin.Graph().Stats()
					}
				}()

				targets := []*Graph{w.Graph(), refWork}
				op := cowTestOps(t, rng,
					func() *Graph { return w.Graph() },
					func() []*Graph { return targets })

				nOps := 1 + rng.Intn(8)
				useMark := rng.Intn(3) == 0
				var marks []int
				for i := 0; i < nOps; i++ {
					if useMark && i == nOps/2 {
						marks = []int{w.Journal().Mark(), refJ.Mark()}
					}
					op()
				}
				if marks != nil {
					// Statement-level rollback inside the transaction.
					w.Journal().RollbackTo(marks[0])
					refJ.RollbackTo(marks[1])
				}

				// A rolled-back transaction, or one whose journal is empty,
				// publishes nothing.
				rollback := rng.Intn(4) == 0
				publishes := !rollback && refJ.Len() > 0
				preEpoch := s.Epoch()
				if publishes {
					w.Commit()
					refJ.Commit()
					ref = refWork
				} else {
					if rollback {
						w.Rollback()
					} else {
						w.Commit() // an empty journal
					}
					refJ.Discard()
					refNextNode, refNextRel = refWork.nextNode, refWork.nextRel
				}

				close(stop)
				<-done
				// The pinned snapshot never observed the transaction.
				if got := pin.Graph().NumNodes(); got != preNodes {
					t.Fatalf("%s: pinned snapshot node count moved %d -> %d", ctx, preNodes, got)
				}

				snap := s.Acquire()
				graphsEqual(t, snap.Graph(), ref, ctx+" cow vs deep-clone")
				checkGraphInvariants(t, snap.Graph(), ctx+" cow invariants")
				if !publishes && (snap.Graph() != pin.Graph() || s.Epoch() != preEpoch) {
					// Regression: a transaction that changed nothing must
					// leave the published epoch — and with it the
					// cache-relevant counters — exactly as it was.
					t.Fatalf("%s: a transaction that changed nothing published epoch %d (was %d)",
						ctx, s.Epoch(), preEpoch)
				}
				pin.Release()
				snap.Release()
			}
		})
	}
}

// TestCloneCOWSharesUntouchedStructure pins the O(changes) claim at the
// container level: after a 1-node write transaction on a COW clone, the
// untouched shards of the published base are the very same objects in
// the committed graph (shared, not copied), while the touched shard was
// replaced.
func TestCloneCOWSharesUntouchedStructure(t *testing.T) {
	g := New()
	for i := 0; i < 4*(1<<shardBits); i++ {
		g.CreateNode([]string{"N"}, value.Map{"i": value.Int(int64(i))})
	}
	s := NewStore(g)
	pin := s.Acquire()
	defer pin.Release()

	w := s.BeginWrite()
	clone := w.Graph()
	// Directory copied, shards shared.
	for si := range g.nodes.shards {
		if clone.nodes.shards[si] != g.nodes.shards[si] {
			t.Fatalf("node shard %d was copied before any write", si)
		}
	}
	clone.CreateNode([]string{"N"}, nil) // touches only the last shard
	touched := int(clone.nextNode >> shardBits)
	copied := 0
	for si := range g.nodes.shards {
		if si < len(clone.nodes.shards) && clone.nodes.shards[si] != g.nodes.shards[si] {
			copied++
			if si != touched {
				t.Fatalf("write to shard %d copied unrelated shard %d", touched, si)
			}
		}
	}
	if copied > 1 {
		t.Fatalf("1-node write copied %d shards", copied)
	}
	w.Commit()
}

// TestInPlaceWriterRespectsOlderEpochSharing (named for the in-place
// write path the store used to have): after a commit, the published
// graph shares buckets with the older, still-pinned epoch. A later
// writer — with no pins on the current epoch — must never mutate a
// bucket still shared with the older epoch, nor the current epoch's own
// graph.
func TestInPlaceWriterRespectsOlderEpochSharing(t *testing.T) {
	g := New()
	n := g.CreateNode([]string{"N"}, value.Map{"v": value.Int(1)})
	s := NewStore(g)

	oldPin := s.Acquire() // pins epoch 0
	w := s.BeginWrite()
	w.Graph().CreateNode([]string{"N"}, nil)
	w.Commit() // epoch 1 shares node 1's shard with epoch 0

	// No pins on epoch 1: the next writer still works on a clone, so
	// neither epoch 0 nor epoch 1 sees its writes.
	epoch1 := s.Acquire()
	g1 := epoch1.Graph()
	epoch1.Release()
	w2 := s.BeginWrite()
	if w2.Graph() == g1 {
		t.Fatal("writer works on the published graph")
	}
	if err := w2.Graph().SetNodeProp(n.ID, "v", value.Int(99)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Graph().AddLabel(n.ID, "X"); err != nil {
		t.Fatal(err)
	}
	w2.Commit()

	for _, old := range []*Graph{oldPin.Graph(), g1} {
		if got := prop(old, old.Node(n.ID).Props, "v"); got != value.Int(1) {
			t.Fatalf("older epoch saw a later write: v = %v", got)
		}
		if old.HasLabel(old.Node(n.ID), "X") {
			t.Fatal("older epoch saw a later label write")
		}
		if len(old.NodeIDsByLabel("X")) != 0 {
			t.Fatal("older epoch's label index saw a later write")
		}
	}
	oldPin.Release()

	cur := s.Acquire()
	defer cur.Release()
	if got := prop(cur.Graph(), cur.Graph().Node(n.ID).Props, "v"); got != value.Int(99) {
		t.Fatalf("current epoch lost the write: v = %v", got)
	}
}
