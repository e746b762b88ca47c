package graph

// Randomized reader/writer interleaving stress: readers churn
// Acquire/Release against a copy-on-write writer, with rollbacks mixed
// in.
// Run under `-race` (CI does), this is the executable claim that the
// structure-sharing containers never let a writer touch memory a pinned
// reader can see.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/value"
)

// TestStoreReaderWriterStress drives one writer goroutine (the store is
// single-writer by construction) against many churning readers.
//
// Invariants checked:
//   - no torn reads: writers only ever commit batches of `batch` nodes
//     labeled :S with a marker property, so every snapshot must show
//     count(:S) == NumNodes, both divisible by batch, with the label
//     index, statistics and property index agreeing;
//   - pin-count integrity: after the readers finish, no pin is left.
func TestStoreReaderWriterStress(t *testing.T) {
	const (
		readers   = 6
		readQuota = 120
		batch     = 3
		txns      = 150
	)
	g := New()
	g.CreateIndex("S", "i")
	s := NewStore(g)

	var wg sync.WaitGroup
	writerDone := make(chan struct{})
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			// Run until the writer has finished (and at least readQuota
			// times), so readers overlap every write transaction.
			running := func(k int) bool {
				if k < readQuota {
					return true
				}
				select {
				case <-writerDone:
					return false
				default:
					return true
				}
			}
			for k := 0; running(k); k++ {
				sn := s.Acquire()
				gg := sn.Graph()
				n := gg.NumNodes()
				if n%batch != 0 {
					t.Errorf("reader %d: %d nodes is not a committed multiple of %d", r, n, batch)
				}
				if got := gg.NodeCountByLabel("S"); got != n {
					t.Errorf("reader %d: label index says %d :S nodes, store has %d", r, got, n)
				}
				if rng.Intn(4) == 0 {
					// Deep consistency probe: sorted ids, stats recount,
					// an index bucket.
					ids := gg.NodeIDsByLabel("S")
					if len(ids) != n {
						t.Errorf("reader %d: NodeIDsByLabel %d vs %d nodes", r, len(ids), n)
					}
					if len(ids) > 0 {
						probe := ids[rng.Intn(len(ids))]
						v, ok := gg.Prop(gg.Node(probe).Props, "i")
						if !ok {
							t.Errorf("reader %d: node %d lost its marker", r, probe)
						} else if hits := gg.NodeIDsByProp("S", "i", v); len(hits) == 0 {
							t.Errorf("reader %d: index bucket for %v empty", r, v)
						}
					}
				}
				sn.Release()
			}
		}()
	}

	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < txns; i++ {
			w := s.BeginWrite()
			for b := 0; b < batch; b++ {
				w.Graph().CreateNode([]string{"S"}, value.Map{"i": value.Int(int64(i*batch + b))})
			}
			if rng.Intn(5) == 0 {
				// A doomed half-batch must never become visible.
				w.Graph().CreateNode([]string{"Torn"}, nil)
				w.Graph().CreateNode([]string{"S"}, nil)
				w.Rollback()
			} else {
				w.Commit()
			}
		}
	}()

	wg.Wait()
	<-writerDone

	final := s.Acquire()
	n := final.Graph().NumNodes()
	if n%batch != 0 {
		t.Fatalf("final node count %d not a multiple of %d", n, batch)
	}
	if len(final.Graph().NodeIDsByLabel("Torn")) != 0 {
		t.Fatal("rolled-back node visible after the run")
	}
	checkGraphInvariants(t, final.Graph(), "final")
	final.Release()

	if pins := s.PinnedReaders(); pins != 0 {
		t.Fatalf("%d pins left after every reader released: pin count corrupted", pins)
	}
}

// TestSnapshotDoubleReleasePanics pins the Release guard: a double
// release corrupts the pin count, so it must fail loudly at the faulty
// call site instead.
func TestSnapshotDoubleReleasePanics(t *testing.T) {
	s := NewStore(New())
	sn := s.Acquire()
	sn.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	sn.Release()
}

// TestSnapshotBalancedReleaseDoesNotPanic: the guard must not fire on
// correct pairing, including multiple concurrent pins of one snapshot.
func TestSnapshotBalancedReleaseDoesNotPanic(t *testing.T) {
	s := NewStore(New())
	a := s.Acquire()
	b := s.Acquire()
	if a != b {
		t.Fatal("expected both pins on the published snapshot")
	}
	a.Release()
	b.Release()
	if pins := s.PinnedReaders(); pins != 0 {
		t.Fatalf("balanced releases left %d pins, want 0", pins)
	}
}
