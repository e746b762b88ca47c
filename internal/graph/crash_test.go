package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/value"
)

// The fault-injection harness: a walFS/walFile double with a byte
// budget. Writes pass through to the real file until the budget runs
// out — the last write is cut at the exact byte where the budget ends,
// modelling a process killed mid-write — and every operation after
// that fails. Metadata operations (sync, rename, truncate, create,
// remove, directory sync) each consume one unit, so the kill point can
// also land between any two steps of the checkpoint protocol.

var errInjectedCrash = errors.New("injected crash")

type faultInjector struct {
	mu      sync.Mutex
	budget  int64
	tripped bool
}

// spendBytes consumes up to n bytes of budget and returns how many the
// caller may actually write. Exhausting the budget trips the injector.
func (in *faultInjector) spendBytes(n int) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.tripped {
		return 0, errInjectedCrash
	}
	if int64(n) <= in.budget {
		in.budget -= int64(n)
		return n, nil
	}
	allowed := int(in.budget)
	in.budget = 0
	in.tripped = true
	return allowed, errInjectedCrash
}

// spendOp consumes one unit for a metadata operation.
func (in *faultInjector) spendOp() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.tripped || in.budget == 0 {
		in.tripped = true
		return errInjectedCrash
	}
	in.budget--
	return nil
}

func (in *faultInjector) check() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.tripped {
		return errInjectedCrash
	}
	return nil
}

type faultFile struct {
	f  *os.File
	in *faultInjector
}

func (ff *faultFile) Write(p []byte) (int, error) {
	allowed, ierr := ff.in.spendBytes(len(p))
	var n int
	if allowed > 0 {
		var werr error
		n, werr = ff.f.Write(p[:allowed])
		if werr != nil {
			return n, werr
		}
	}
	if ierr != nil {
		return n, ierr
	}
	return n, nil
}

func (ff *faultFile) Sync() error {
	if err := ff.in.spendOp(); err != nil {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	if err := ff.in.spendOp(); err != nil {
		return err
	}
	return ff.f.Truncate(size)
}

func (ff *faultFile) Close() error {
	err := ff.in.check()
	if cerr := ff.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func (ff *faultFile) Name() string { return ff.f.Name() }

type faultFS struct {
	in *faultInjector
}

func (fs faultFS) OpenAppend(path string) (walFile, error) {
	if err := fs.in.check(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o666)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, in: fs.in}, nil
}

func (fs faultFS) CreateTemp(dir, pattern string) (walFile, error) {
	if err := fs.in.spendOp(); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, in: fs.in}, nil
}

func (fs faultFS) Rename(oldpath, newpath string) error {
	if err := fs.in.spendOp(); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

func (fs faultFS) Remove(path string) error {
	if err := fs.in.spendOp(); err != nil {
		return err
	}
	return os.Remove(path)
}

func (fs faultFS) SyncDir(dir string) error {
	if err := fs.in.spendOp(); err != nil {
		return err
	}
	return osFS{}.SyncDir(dir)
}

// randValue draws a property value, biased toward the awkward cases:
// NaN and infinities (bit-identity, not equality), negative zero,
// empty strings, nested lists.
func randValue(rng *rand.Rand) value.Value {
	switch rng.Intn(10) {
	case 0:
		return value.Float(math.NaN())
	case 1:
		return value.Float(math.Inf(1 - 2*rng.Intn(2)))
	case 2:
		return value.Float(math.Copysign(0, -1))
	case 3:
		return value.Int(rng.Int63n(1000) - 500)
	case 4:
		return value.String("")
	case 5:
		return value.String(fmt.Sprintf("s%d", rng.Intn(100)))
	case 6:
		return value.Bool(rng.Intn(2) == 0)
	case 7:
		return value.NullValue
	case 8:
		return value.List{value.Int(1), value.Float(math.NaN()), value.String("x")}
	default:
		return value.Float(rng.NormFloat64())
	}
}

var crashLabels = []string{"A", "B", "C"}
var crashKeys = []string{"k", "name", "w"}

// crashWorkload runs one randomized transaction on w: a handful of
// creates, deletes, property writes, label flips, index changes, and
// occasionally a statement-level journal rollback in the middle.
func crashWorkload(rng *rand.Rand, w *WriteTxn) {
	g := w.Graph()
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		if rng.Intn(6) == 0 {
			// A mid-transaction statement rollback, like a failing
			// statement inside an open transaction.
			j := w.Journal()
			mark := j.Mark()
			g.CreateNode([]string{"Doomed"}, value.Map{"x": randValue(rng)})
			j.RollbackTo(mark)
			continue
		}
		nodes := g.NodeIDs()
		switch rng.Intn(8) {
		case 0, 1:
			props := value.Map{}
			for k := 0; k < rng.Intn(3); k++ {
				props[crashKeys[rng.Intn(len(crashKeys))]] = randValue(rng)
			}
			var labels []string
			for k := 0; k < rng.Intn(3); k++ {
				labels = append(labels, crashLabels[rng.Intn(len(crashLabels))])
			}
			g.CreateNode(labels, props)
		case 2:
			if len(nodes) >= 2 {
				g.CreateRel(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))],
					"R"+strconv.Itoa(rng.Intn(2)), value.Map{"w": randValue(rng)})
			}
		case 3:
			if rels := g.RelIDs(); len(rels) > 0 {
				g.DeleteRel(rels[rng.Intn(len(rels))])
			}
		case 4:
			if len(nodes) > 0 {
				g.DetachDeleteNode(nodes[rng.Intn(len(nodes))])
			}
		case 5:
			if len(nodes) > 0 {
				id := nodes[rng.Intn(len(nodes))]
				g.SetNodeProp(id, crashKeys[rng.Intn(len(crashKeys))], randValue(rng))
			}
		case 6:
			if len(nodes) > 0 {
				id := nodes[rng.Intn(len(nodes))]
				l := crashLabels[rng.Intn(len(crashLabels))]
				if rng.Intn(2) == 0 {
					g.AddLabel(id, l)
				} else {
					g.RemoveLabel(id, l)
				}
			}
		default:
			l := crashLabels[rng.Intn(len(crashLabels))]
			k := crashKeys[rng.Intn(len(crashKeys))]
			if rng.Intn(2) == 0 {
				g.CreateIndex(l, k)
			} else {
				g.DropIndex(l, k)
			}
		}
	}
}

// TestKillAtRandomPointRecovery is the durability property test: run a
// random workload against a store whose filesystem is killed at a
// random byte offset, then recover with the real filesystem and check
// the result is bit-identical to the state at some published epoch —
// and, under SyncAlways, at least the last epoch whose Commit returned
// success. CRASH_ITERS overrides the iteration count (the Makefile's
// crash target runs 250 under -race); CRASH_SEED pins the base seed
// for reproduction.
func TestKillAtRandomPointRecovery(t *testing.T) {
	iters := 120
	if s := os.Getenv("CRASH_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad CRASH_ITERS: %v", err)
		}
		iters = n
	}
	baseSeed := time.Now().UnixNano()
	if s := os.Getenv("CRASH_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CRASH_SEED: %v", err)
		}
		baseSeed = n
	}
	t.Logf("base seed %d (set CRASH_SEED=%d to reproduce)", baseSeed, baseSeed)
	for it := 0; it < iters; it++ {
		seed := baseSeed + int64(it)
		if err := crashIteration(seed); err != nil {
			t.Fatalf("iteration %d (CRASH_SEED=%d CRASH_ITERS=1): %v", it, seed, err)
		}
	}
}

func crashIteration(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	dir, err := os.MkdirTemp("", "crash-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Log-uniform byte budget: small budgets probe the header and the
	// first record's framing, large ones let checkpoints happen first.
	b := int64(1) << uint(1+rng.Intn(15))
	budget := b + rng.Int63n(b)
	inj := &faultInjector{budget: budget}

	opts := Durability{
		Sync:            SyncMode(rng.Intn(3)),
		SyncEvery:       time.Millisecond,
		CheckpointBytes: []int64{512, 2048, -1}[rng.Intn(3)],
	}

	// expected[e] is the exact graph published at epoch e. Epoch 0 is
	// the empty store. Recovery must land on one of these, bit for bit.
	expected := map[int64]*Graph{0: New()}
	lastDurable := int64(0)

	st, wal, err := recoverFS(dir, opts, faultFS{in: inj})
	if err == nil {
		// A background reader, so -race checks recovery-epoch
		// publication and commits against concurrent snapshot access.
		stop := make(chan struct{})
		var readers sync.WaitGroup
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := st.Acquire()
				_ = ComputeStats(snap.Graph())
				snap.Release()
			}
		}()

		hookRan := false
		st.OnCommit(func(*Delta) { hookRan = true })

		for txn := 0; txn < 40; txn++ {
			if rng.Intn(12) == 0 {
				st.Checkpoint() // may fail under injection; that's the point
			}
			w := st.BeginWrite()
			crashWorkload(rng, w)
			if rng.Intn(8) == 0 {
				w.Rollback() // publishes nothing
				continue
			}
			clone := w.Graph().Clone()
			hookRan = false
			before := st.Epoch()
			epoch, err := w.Commit()
			if epoch != before {
				// Only a transaction with journal entries publishes an
				// epoch, and every published epoch has a log record.
				expected[epoch] = clone
			}
			if err != nil {
				break // the injected crash: the process is dead
			}
			if opts.Sync == SyncAlways && hookRan {
				lastDurable = epoch
			}
		}
		close(stop)
		readers.Wait()
		wal.Close()
	}
	// else: the crash landed inside recovery/open itself; the durable
	// state is whatever was already on disk (here: nothing).

	// The next process: recover with the real filesystem.
	st2, wal2, err := Recover(dir, Durability{})
	if err != nil {
		return fmt.Errorf("recovery failed: %v", err)
	}
	re := st2.Epoch()
	want, ok := expected[re]
	if !ok {
		wal2.Close()
		return fmt.Errorf("recovered to epoch %d, which was never published", re)
	}
	if re < lastDurable {
		wal2.Close()
		return fmt.Errorf("recovered to epoch %d but SyncAlways committed through %d", re, lastDurable)
	}
	snap := st2.Acquire()
	cmpErr := Identical(want, snap.Graph())
	snap.Release()
	if cmpErr != nil {
		wal2.Close()
		return fmt.Errorf("recovered epoch %d differs from published epoch %d: %v", re, re, cmpErr)
	}

	// The recovered store must be fully writable: one more commit, one
	// more recovery.
	w := st2.BeginWrite()
	w.Graph().CreateNode([]string{"AfterCrash"}, value.Map{"ok": value.Bool(true)})
	if _, err := w.Commit(); err != nil {
		wal2.Close()
		return fmt.Errorf("commit after recovery: %v", err)
	}
	snap = st2.Acquire()
	want2 := snap.Graph().Clone()
	epoch2 := st2.Epoch()
	snap.Release()
	if err := wal2.Close(); err != nil {
		return fmt.Errorf("close after recovery: %v", err)
	}
	st3, wal3, err := Recover(dir, Durability{})
	if err != nil {
		return fmt.Errorf("second recovery: %v", err)
	}
	defer wal3.Close()
	if st3.Epoch() != epoch2 {
		return fmt.Errorf("second recovery epoch %d, want %d", st3.Epoch(), epoch2)
	}
	snap = st3.Acquire()
	defer snap.Release()
	if err := Identical(want2, snap.Graph()); err != nil {
		return fmt.Errorf("state after post-crash commit differs: %v", err)
	}
	return nil
}
