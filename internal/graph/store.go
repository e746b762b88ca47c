package graph

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Store is the transactional wrapper around a Graph: it publishes a
// sequence of committed epochs, lets any number of readers pin a
// consistent snapshot of the latest epoch, and serializes writers
// through a single-writer commit pipeline.
//
// The paper makes individual Cypher statements atomic (the journal and
// ChangeSet machinery of this package); the Store extends that to
// *transactions* — groups of statements that commit or roll back as one
// — and to concurrency: readers never block each other or wait for a
// writer, and never observe a half-applied transaction.
//
// # Epochs and snapshots
//
// The Store holds one published snapshot at a time: the graph as of the
// last committed transaction, tagged with a monotonically increasing
// epoch number. Acquire pins that snapshot (a reference count) and
// returns it; a published graph is never written again, so readers
// iterate it with no lock held at all. Release drops the pin (and
// panics on a double release, so an unbalanced pin count is caught at
// the faulty call site).
//
// # The single-writer pipeline
//
// BeginWrite hands out the writer baton (a mutex — at most one write
// transaction at a time) and a copy-on-write clone of the published
// graph (cloneCOW): the clone shares every container bucket with the
// published snapshot and copies only the buckets the transaction
// touches, so a commit costs O(changes), not O(graph), and current and
// new readers keep streaming from the published snapshot for the whole
// transaction. Commit atomically publishes the clone as the next epoch;
// the old snapshot stays valid until its pins drain.
//
// Commit publishes the transaction's journal with the new epoch; the
// net structural Delta is derived from it lazily (Snapshot.Delta) or
// at commit time when OnCommit hooks are registered. A transaction
// that changed nothing — rolled back, or with an empty journal —
// publishes nothing: Rollback simply discards the clone, leaving the
// published epoch, its number and the cache-relevant counters (Version,
// IndexEpoch, statistics) exactly as they were, so plan caches survive
// a rolled-back transaction untouched. Only the id counters carry over:
// ids consumed by a discarded transaction stay consumed, matching the
// journal-driven statement rollback of Journal.RollbackTo. Readers
// therefore see exactly the pre-commit or the post-commit epoch — never
// anything in between.
type Store struct {
	mu  sync.Mutex
	cur *Snapshot

	// writerMu is the single-writer baton: held from BeginWrite until
	// Commit/Rollback, serializing write transactions.
	writerMu sync.Mutex

	// onCommit holds the registered change-feed hooks (OnCommit).
	onCommit []func(*Delta)

	// wal is the write-ahead log of a durable store (nil otherwise).
	// It is set by Recover before the store is shared, never after, so
	// reads need no lock.
	wal *WAL

	epoch int64

	// nextNode and nextRel are the id high-water marks of discarded
	// transactions, which publish no graph to carry them; BeginWrite
	// applies them to its clone. Guarded by writerMu.
	nextNode NodeID
	nextRel  RelID
}

// NewStore wraps g (which must not be used directly afterwards) in a
// store publishing it as epoch 0.
func NewStore(g *Graph) *Store {
	s := &Store{}
	s.cur = &Snapshot{store: s, g: g}
	return s
}

// Snapshot is a pinned, immutable view of one committed epoch. The
// Graph it exposes is safe for concurrent readers and MUST NOT be
// mutated; Release the pin when done.
type Snapshot struct {
	store *Store
	g     *Graph
	epoch int64
	pins  atomic.Int64

	// The epoch's change record: the committing transaction's journal
	// entries, netted into a Delta lazily (deltaOnce) so commits nobody
	// observes — no OnCommit hooks, Delta never called — skip the
	// netting pass entirely.
	deltaEntries []undoEntry
	deltaOnce    sync.Once
	delta        *Delta
}

// Graph returns the snapshot's immutable graph.
func (sn *Snapshot) Graph() *Graph { return sn.g }

// Epoch reports the committed epoch this snapshot captures.
func (sn *Snapshot) Epoch() int64 { return sn.epoch }

// Delta returns the net structural change the transaction that
// committed this epoch applied, or nil for epoch 0 and for commits
// whose journal entries net to nothing. The delta references the
// snapshot's graph state: consumers resolve entity ids against
// Graph(). It is derived from the
// transaction's journal on first call (safe under concurrent readers).
func (sn *Snapshot) Delta() *Delta {
	sn.deltaOnce.Do(func() {
		sn.delta = netDelta(sn.g, sn.deltaEntries)
		if sn.delta != nil {
			sn.delta.Epoch = sn.epoch
		}
		sn.deltaEntries = nil
	})
	return sn.delta
}

// Release drops the pin. The snapshot must not be used afterwards.
// Driving the pin count negative panics, so an unbalanced Release is
// caught at the latest when the count bottoms out — always immediately
// when no other reader holds a pin. (While other pins are outstanding
// an early double release is indistinguishable from their legitimate
// releases and surfaces only at the final one; the count still ends
// negative, so the corruption cannot stay silent.)
func (sn *Snapshot) Release() {
	if sn.pins.Add(-1) < 0 {
		panic("graph: Snapshot.Release without a matching Acquire (double release?)")
	}
}

// Acquire pins the latest committed epoch and returns it. It never
// waits for a writer: write transactions work on a private clone, and a
// published graph is immutable.
func (s *Store) Acquire() *Snapshot {
	s.mu.Lock()
	sn := s.cur
	sn.pins.Add(1)
	s.mu.Unlock()
	return sn
}

// PinnedReaders reports how many readers currently pin the latest
// committed snapshot (Acquire minus Release). Diagnostic: a quiescent
// store reports zero.
func (s *Store) PinnedReaders() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur.pins.Load()
}

// Epoch reports the latest committed epoch number.
func (s *Store) Epoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// WAL returns the store's write-ahead log, or nil for an in-memory
// store.
func (s *Store) WAL() *WAL { return s.wal }

// Checkpoint forces a durability checkpoint: the current epoch is
// written as the snapshot and the log truncated. It takes the writer
// baton, so it serializes against write transactions. Errors if the
// store is not durable.
func (s *Store) Checkpoint() error {
	if s.wal == nil {
		return fmt.Errorf("graph: checkpoint of a non-durable store")
	}
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	// With the baton held no commit can replace cur, and a published
	// graph is immutable, so the unlocked use of g below is safe.
	s.mu.Lock()
	g, epoch := s.cur.g, s.epoch
	s.mu.Unlock()
	return s.wal.checkpoint(g, epoch)
}

// OnCommit registers fn as a change-feed consumer: after every commit
// that changed anything, fn is called with the new epoch's Delta.
// Hooks run on the committing goroutine, in epoch order, while the
// writer baton is still held — they must return promptly and must not
// start a write transaction on the same store (deadlock); reading via
// Acquire is fine. Rolled-back and no-op transactions produce no call.
func (s *Store) OnCommit(fn func(*Delta)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onCommit = append(s.onCommit, fn)
}

// WriteTxn is an open write transaction: a copy-on-write clone of the
// published graph, journaled so statements can roll back to a mark,
// holding the writer baton until Commit or Rollback.
type WriteTxn struct {
	s    *Store
	g    *Graph
	j    *Journal
	done bool
}

// BeginWrite opens a write transaction, blocking while another one is
// in flight (single writer). The transaction works on a copy-on-write
// clone of the published graph, so readers are never blocked: the
// published epoch stays readable for the whole transaction, however
// long the caller keeps it open.
func (s *Store) BeginWrite() *WriteTxn {
	s.writerMu.Lock()
	// Only a baton holder replaces cur, and a published graph is
	// immutable, so with the baton held neither the read of cur nor the
	// clone (which copies container directories only) needs the store
	// mutex: readers keep acquiring snapshots meanwhile.
	g := s.cur.g.cloneCOW()
	g.nextNode = max(g.nextNode, s.nextNode)
	g.nextRel = max(g.nextRel, s.nextRel)
	return &WriteTxn{s: s, g: g, j: g.BeginJournal()}
}

// Graph returns the transaction's working graph. Statements of the
// transaction execute (and read their own writes) against it.
func (w *WriteTxn) Graph() *Graph { return w.g }

// Journal returns the transaction's undo journal. Callers use
// Mark/RollbackTo for statement-level rollback within the transaction.
func (w *WriteTxn) Journal() *Journal { return w.j }

// Commit keeps all mutations and publishes the working graph as the
// next epoch, releasing the writer baton. It returns the new epoch.
// The epoch carries the transaction's net Delta (derived from the
// journal), delivered to OnCommit hooks and readable via
// Snapshot.Delta. A transaction whose journal is empty changed nothing:
// it publishes nothing, like Rollback, and returns the current epoch.
//
// On a durable store every published epoch gets a write-ahead log
// record (an empty-delta one when netting cancels everything), appended
// (and, under SyncAlways, fsynced) before the epoch is published; a log
// failure is returned here. The in-memory commit still takes effect,
// but it may not survive a crash, and the log is poisoned: every later
// commit returns the same error.
func (w *WriteTxn) Commit() (int64, error) {
	if w.done {
		panic("graph: commit of a finished write transaction")
	}
	entries := w.j.entries // netted lazily; Journal.Commit only drops its reference
	w.j.Commit()
	if len(entries) == 0 {
		return w.discard(), nil
	}
	return w.finish(entries)
}

// Rollback abandons the transaction, releasing the writer baton. The
// working clone is discarded wholesale — no undo replay — and nothing
// is published: the epoch number and the published graph, with its
// cache-relevant counters (Version, IndexEpoch, statistics), stay
// exactly as they were, so a rolled-back transaction neither
// invalidates plan caches nor churns memory. Ids it consumed stay
// consumed, like those of a statement rolled back to a journal mark.
func (w *WriteTxn) Rollback() {
	if w.done {
		panic("graph: rollback of a finished write transaction")
	}
	w.j.Discard()
	w.discard()
}

// discard ends a transaction that publishes nothing: it keeps only the
// clone's id counters, for the next BeginWrite, and returns the
// unchanged current epoch.
func (w *WriteTxn) discard() int64 {
	w.done = true
	s := w.s
	s.nextNode, s.nextRel = w.g.nextNode, w.g.nextRel
	epoch := s.epoch // only baton holders write s.epoch
	s.writerMu.Unlock()
	return epoch
}

func (w *WriteTxn) finish(entries []undoEntry) (int64, error) {
	w.done = true
	s := w.s
	// The epoch this transaction will publish. Only finish advances
	// s.epoch, and finish runs under the writer baton, so the unlocked
	// read is safe.
	epoch := s.epoch + 1
	// Write-ahead: on a durable store the epoch must be on the log
	// before anyone can observe it. The netting normally deferred to
	// Snapshot.Delta happens here instead, and the result is pre-seeded
	// into the snapshot below so it is not re-derived.
	var (
		d      *Delta
		walErr error
	)
	if s.wal != nil {
		d = netDelta(w.g, entries)
		rec := d
		if rec == nil {
			// Netting cancelled everything, but the epoch (and the id
			// counters the transaction consumed) still needs its record.
			rec = &Delta{}
		}
		rec.Epoch = epoch
		walErr = s.wal.Append(rec, w.g)
	}
	s.mu.Lock()
	s.epoch = epoch
	sn := &Snapshot{store: s, g: w.g, epoch: epoch, deltaEntries: entries}
	if s.wal != nil {
		sn.deltaOnce.Do(func() {
			sn.delta = d
			sn.deltaEntries = nil
		})
	}
	hooks := s.onCommit
	s.cur = sn
	s.mu.Unlock()
	// Compact the log once it outgrows the threshold. The record above
	// is already durable, so a checkpoint failure does not undo this
	// commit; if it poisoned the log the next append will say so.
	if walErr == nil && s.wal != nil && s.wal.wantCheckpoint() {
		_ = s.wal.checkpoint(w.g, epoch)
	}
	// Feed hooks run before the writer baton is released so deltas
	// arrive in strict epoch order. Dispatching them forces the lazy
	// netting; without hooks it stays deferred to the first
	// Snapshot.Delta call (or never happens). A panicking hook must not
	// wedge the writer baton or starve later hooks: the first panic is
	// re-raised on this (committing) goroutine only after every hook
	// ran and the baton is released — the commit itself stays published
	// and durable.
	var hookPanic any
	panicked := false
	if len(hooks) > 0 {
		if d := sn.Delta(); d != nil {
			for _, h := range hooks {
				func() {
					defer func() {
						if r := recover(); r != nil && !panicked {
							hookPanic, panicked = r, true
						}
					}()
					h(d)
				}()
			}
		}
	}
	s.writerMu.Unlock()
	if panicked {
		panic(hookPanic)
	}
	return epoch, walErr
}
