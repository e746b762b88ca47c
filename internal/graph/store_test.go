package graph

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/value"
)

func storeWithNodes(t *testing.T, n int) *Store {
	t.Helper()
	g := New()
	for i := 0; i < n; i++ {
		g.CreateNode([]string{"N"}, value.Map{"i": value.Int(int64(i))})
	}
	return NewStore(g)
}

func TestStoreCommitPublishesNewEpoch(t *testing.T) {
	s := storeWithNodes(t, 3)
	before := s.Acquire()
	defer before.Release()

	w := s.BeginWrite()
	w.Graph().CreateNode([]string{"N"}, nil)
	if got := w.Graph().NumNodes(); got != 4 {
		t.Fatalf("writer sees %d nodes, want 4", got)
	}
	// The pinned snapshot must not see the uncommitted write.
	if got := before.Graph().NumNodes(); got != 3 {
		t.Fatalf("pinned reader sees %d nodes mid-write, want 3", got)
	}
	epoch, _ := w.Commit()
	if epoch != 1 {
		t.Fatalf("epoch = %d, want 1", epoch)
	}

	after := s.Acquire()
	defer after.Release()
	if got := after.Graph().NumNodes(); got != 4 {
		t.Fatalf("post-commit snapshot sees %d nodes, want 4", got)
	}
	// The old pin still reads the old epoch.
	if got := before.Graph().NumNodes(); got != 3 {
		t.Fatalf("pre-commit snapshot now sees %d nodes, want 3", got)
	}
	if before.Epoch() == after.Epoch() {
		t.Fatal("epochs must differ across a commit")
	}
}

func TestStoreRollbackRestoresState(t *testing.T) {
	s := storeWithNodes(t, 2)
	w := s.BeginWrite()
	w.Graph().CreateNode([]string{"Extra"}, nil)
	w.Graph().CreateNode([]string{"Extra"}, nil)
	w.Rollback()

	sn := s.Acquire()
	defer sn.Release()
	if got := sn.Graph().NumNodes(); got != 2 {
		t.Fatalf("post-rollback snapshot sees %d nodes, want 2", got)
	}
	if len(sn.Graph().NodeIDsByLabel("Extra")) != 0 {
		t.Fatal("rolled-back nodes visible")
	}
}

// TestStoreRollbackWithPinnedReader exercises the clone path: the
// writer works on a copy, so rollback must leave both the old snapshot
// and the newly published epoch at the pre-transaction state.
func TestStoreRollbackWithPinnedReader(t *testing.T) {
	s := storeWithNodes(t, 2)
	pin := s.Acquire()
	defer pin.Release()

	w := s.BeginWrite()
	w.Graph().CreateNode([]string{"Extra"}, nil)
	w.Rollback()

	sn := s.Acquire()
	defer sn.Release()
	for _, g := range []*Graph{pin.Graph(), sn.Graph()} {
		if got := g.NumNodes(); got != 2 {
			t.Fatalf("snapshot sees %d nodes after rollback, want 2", got)
		}
	}
}

// TestStoreInPlaceFastPath (named for the in-place write path the store
// used to have, on which readers waited for the writer): while a write
// transaction is open, Acquire returns the pre-transaction epoch without
// blocking, and the writer's clone is not the published graph. Run
// under -race, the reader's walk races with nothing the writer touches.
func TestStoreInPlaceFastPath(t *testing.T) {
	s := storeWithNodes(t, 1)
	w := s.BeginWrite()
	w.Graph().CreateNode([]string{"N"}, nil)

	got := make(chan string, 1)
	go func() {
		sn := s.Acquire()
		defer sn.Release()
		if sn.Graph() == w.Graph() {
			got <- "reader pinned the writer's working graph"
			return
		}
		n := 0
		for _, id := range sn.Graph().NodeIDs() {
			n += len(sn.Graph().Node(id).Labels)
		}
		got <- fmt.Sprintf("epoch %d, %d labelled nodes", sn.Epoch(), n)
	}()
	select {
	case msg := <-got:
		if want := "epoch 0, 1 labelled nodes"; msg != want {
			t.Fatalf("reader saw %s, want %s", msg, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Acquire blocked while a write transaction was open")
	}
	w.Commit()
}

// TestStoreCloneOnPinnedReader: a pinned reader never shares the
// writer's working graph.
func TestStoreCloneOnPinnedReader(t *testing.T) {
	s := storeWithNodes(t, 1)
	pin := s.Acquire()
	w := s.BeginWrite()
	if w.Graph() == pin.Graph() {
		t.Fatal("clone must not alias the pinned graph")
	}
	w.Commit()
	pin.Release()
}

// TestStoreConcurrentReadersSeeCommittedEpochsOnly hammers the store
// with concurrent readers while a writer commits batches, asserting
// every reader observes a node count some commit produced (multiples of
// the batch size) — never a torn intermediate.
func TestStoreConcurrentReadersSeeCommittedEpochsOnly(t *testing.T) {
	const (
		batch   = 7
		commits = 50
		readers = 8
	)
	s := NewStore(New())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Acquire()
				n := 0
				for _, id := range sn.Graph().NodeIDs() {
					if sn.Graph().Node(id) != nil {
						n++
					}
				}
				sn.Release()
				if n%batch != 0 {
					t.Errorf("reader saw %d nodes, not a committed multiple of %d", n, batch)
					return
				}
			}
		}()
	}
	for c := 0; c < commits; c++ {
		w := s.BeginWrite()
		for i := 0; i < batch; i++ {
			w.Graph().CreateNode([]string{"N"}, nil)
		}
		if c%5 == 4 {
			// Every fifth batch is rolled back; its nodes must never
			// become visible (the count stays a multiple of batch).
			w.Graph().CreateNode([]string{"Torn"}, nil)
			w.Rollback()
		} else {
			w.Commit()
		}
	}
	close(stop)
	wg.Wait()

	sn := s.Acquire()
	defer sn.Release()
	if got := sn.Graph().NumNodes(); got != batch*commits/5*4 {
		t.Fatalf("final node count %d, want %d", got, batch*commits/5*4)
	}
	if len(sn.Graph().NodeIDsByLabel("Torn")) != 0 {
		t.Fatal("rolled-back node visible after the run")
	}
}

func TestJournalMarkRollbackTo(t *testing.T) {
	g := New()
	a := g.CreateNode([]string{"A"}, nil) // pre-journal
	j := g.BeginJournal()
	g.CreateNode([]string{"B"}, nil)
	mark := j.Mark()
	c := g.CreateNode([]string{"C"}, nil)
	if err := g.SetNodeProp(a.ID, "x", value.Int(1)); err != nil {
		t.Fatal(err)
	}
	j.RollbackTo(mark)
	if g.HasNode(c.ID) {
		t.Fatal("post-mark create survived RollbackTo")
	}
	if _, ok := g.Prop(g.Node(a.ID).Props, "x"); ok {
		t.Fatal("post-mark property write survived RollbackTo")
	}
	if len(g.NodeIDsByLabel("B")) != 1 {
		t.Fatal("pre-mark create was undone")
	}
	// The journal stays attached: a full rollback still undoes the rest.
	j.Rollback()
	if len(g.NodeIDsByLabel("B")) != 0 {
		t.Fatal("full rollback after RollbackTo did not undo pre-mark entries")
	}
	if !g.HasNode(a.ID) {
		t.Fatal("pre-journal node lost")
	}
}
