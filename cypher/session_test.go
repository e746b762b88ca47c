package cypher

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSessionTransactionLifecycle(t *testing.T) {
	db := Open()
	sess := db.Session()
	defer sess.Close()

	if _, err := sess.Exec(`BEGIN`, nil); err != nil {
		t.Fatal(err)
	}
	if !sess.InTransaction() {
		t.Fatal("not in transaction after BEGIN")
	}
	if _, err := sess.Exec(`CREATE (:U{id:1})-[:KNOWS]->(:U{id:2})`, nil); err != nil {
		t.Fatal(err)
	}
	// The transaction reads its own writes; the DB reads committed state.
	res, err := sess.Exec(`MATCH (u:U) RETURN count(*) AS c`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Row(0)["c"].String(); c != "2" {
		t.Errorf("txn sees %s :U nodes, want 2", c)
	}
	if db.NumNodes() != 0 {
		t.Errorf("DB sees %d uncommitted nodes", db.NumNodes())
	}
	stats, err := sess.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesCreated != 2 || stats.RelsCreated != 1 {
		t.Errorf("commit stats = %+v", stats)
	}
	if db.NumNodes() != 2 {
		t.Errorf("DB sees %d nodes post-commit, want 2", db.NumNodes())
	}

	// Programmatic Begin/Rollback.
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(`MATCH (u:U) DETACH DELETE u`, nil); err != nil {
		t.Fatal(err)
	}
	if err := sess.Rollback(); err != nil {
		t.Fatal(err)
	}
	if db.NumNodes() != 2 {
		t.Errorf("rollback lost committed nodes: %d", db.NumNodes())
	}

	// The committed transaction published an epoch; the rolled-back one
	// published nothing.
	if db.Epoch() != 1 {
		t.Errorf("epoch = %d after one committed and one rolled-back transaction, want 1", db.Epoch())
	}
}

func TestDBExecRejectsTxnControl(t *testing.T) {
	db := Open()
	for _, q := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
		_, err := db.Exec(q, nil)
		if err == nil || !strings.Contains(err.Error(), "Session") {
			t.Errorf("DB.Exec(%s) = %v, want session-required error", q, err)
		}
	}
}

func TestSessionExplainShowsTxnBoundaries(t *testing.T) {
	db := Open()
	sess := db.Session()
	defer sess.Close()
	out, err := sess.Explain(`MATCH (n) RETURN n`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pinned snapshot") {
		t.Errorf("read explain:\n%s", out)
	}
	out, err = db.Explain(`CREATE (:X)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "writer lock") || !strings.Contains(out, "[barrier:writer-lock]") {
		t.Errorf("write explain:\n%s", out)
	}
}

// TestConcurrentReadersSingleWriter is the snapshot-isolation stress
// test: 8 goroutine readers stream B5-style match+aggregate queries
// while one writer commits and rolls back multi-statement transactions.
// The committed invariant is "every :Vendor has exactly fanout OFFERS";
// the writer deliberately transits states that violate it (vendor
// created in one statement, offers in later ones, and some transactions
// abandoned half-way), so any reader observing a violation has seen a
// torn, non-snapshot state.
func TestConcurrentReadersSingleWriter(t *testing.T) {
	const (
		readers         = 8
		checksPerReader = 12
		fanout          = 4
	)
	db := Open()
	var (
		wg        sync.WaitGroup
		done      atomic.Bool
		committed atomic.Int64
		checks    atomic.Int64
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < checksPerReader; k++ {
				// Per-vendor offer degree: must be exactly fanout for
				// every vendor in any committed snapshot.
				res, err := db.Exec(`
					MATCH (v:Vendor)
					OPTIONAL MATCH (v)-[:OFFERS]->(p:Product)
					RETURN v.id AS id, count(p) AS deg`, nil)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				for i := 0; i < res.NumRows(); i++ {
					row := res.Row(i)
					if deg := row["deg"].String(); deg != fmt.Sprint(fanout) {
						t.Errorf("torn snapshot: vendor %s has %s offers, want %d", row["id"], deg, fanout)
						return
					}
				}
				if int64(res.NumRows()) > committed.Load() {
					// committed is incremented after COMMIT returns, so a
					// reader may briefly see MORE vendors than the counter
					// — but only by the single in-flight transaction.
					if int64(res.NumRows()) > committed.Load()+1 {
						t.Errorf("reader saw %d vendors, committed %d", res.NumRows(), committed.Load())
						return
					}
				}
				checks.Add(1)
			}
		}()
	}

	go func() {
		wg.Wait()
		done.Store(true)
	}()

	// The writer keeps committing/rolling back transactions until every
	// reader has finished its checks, so the two sides genuinely
	// overlap regardless of scheduling, and until it has made at least
	// one commit and one rollback, however fast the readers were.
	sess := db.Session()
	defer sess.Close()
	rolledBack := 0
	for i := 0; !done.Load() || committed.Load() == 0 || rolledBack == 0; i++ {
		if _, err := sess.Exec(`BEGIN`, nil); err != nil {
			t.Fatal(err)
		}
		// Statement 1: a vendor with no offers yet — a state that
		// violates the committed invariant until statement 2 lands.
		if _, err := sess.Exec(`CREATE (:Vendor{id:$id})`, map[string]any{"id": i}); err != nil {
			t.Fatal(err)
		}
		rollingBack := i%4 == 3
		n := fanout
		if rollingBack {
			n = fanout / 2 // abandon half-way: never visible at all
		}
		if _, err := sess.Exec(`
			MATCH (v:Vendor{id:$id})
			UNWIND range(1, $n) AS k
			CREATE (v)-[:OFFERS]->(:Product{vid:$id, k:k})`,
			map[string]any{"id": i, "n": n}); err != nil {
			t.Fatal(err)
		}
		if rollingBack {
			if _, err := sess.Exec(`ROLLBACK`, nil); err != nil {
				t.Fatal(err)
			}
			rolledBack++
		} else {
			if _, err := sess.Exec(`COMMIT`, nil); err != nil {
				t.Fatal(err)
			}
			committed.Add(1)
		}
	}
	wg.Wait()

	if checks.Load() != readers*checksPerReader {
		t.Fatalf("readers completed %d checks, want %d", checks.Load(), readers*checksPerReader)
	}
	if committed.Load() == 0 || rolledBack == 0 {
		t.Fatalf("workload too one-sided: %d commits, %d rollbacks", committed.Load(), rolledBack)
	}
	res, err := db.Exec(`MATCH (v:Vendor) RETURN count(*) AS c`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Row(0)["c"].String(); c != fmt.Sprint(committed.Load()) {
		t.Errorf("final vendors = %s, want %d", c, committed.Load())
	}
}

// TestConcurrentAutoCommitWriters: implicit transactions from many
// goroutines serialize through the writer pipeline; readers only ever
// see whole statements (multiples of the batch size).
func TestConcurrentAutoCommitWriters(t *testing.T) {
	const (
		writers = 4
		perW    = 10
		batch   = 5
	)
	db := Open()
	var wg sync.WaitGroup
	var done atomic.Bool
	readerErrs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			res, err := db.Exec(`MATCH (k:K) RETURN count(*) AS c`, nil)
			if err != nil {
				select {
				case readerErrs <- err:
				default:
				}
				return
			}
			var c int
			fmt.Sscan(res.Row(0)["c"].String(), &c)
			if c%batch != 0 {
				select {
				case readerErrs <- fmt.Errorf("reader saw %d :K nodes, not a multiple of %d", c, batch):
				default:
				}
				return
			}
		}
	}()
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perW; i++ {
				if _, err := db.Exec(`UNWIND range(1, $n) AS i CREATE (:K{w:$w, i:i})`,
					map[string]any{"n": batch, "w": w}); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(w)
	}
	writerWG.Wait()
	done.Store(true)
	wg.Wait()
	select {
	case err := <-readerErrs:
		t.Fatal(err)
	default:
	}
	if got := db.NumNodes(); got != writers*perW*batch {
		t.Errorf("final nodes = %d, want %d", got, writers*perW*batch)
	}
}
