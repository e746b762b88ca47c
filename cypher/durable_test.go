package cypher

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOpenDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Durable() {
		t.Fatal("OpenDir database not durable")
	}
	mustExec := func(q string) {
		t.Helper()
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec(`CREATE (:User {name: 'ada', score: 1.5})-[:KNOWS {since: 1843}]->(:User {name: 'charles'})`)
	mustExec(`CREATE INDEX ON :User(name)`)
	mustExec(`MATCH (u:User {name: 'charles'}) SET u.score = 2.0`)
	epoch := db.Epoch()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Epoch() != epoch {
		t.Fatalf("recovered epoch %d, want %d", db2.Epoch(), epoch)
	}
	res, err := db2.Exec(`MATCH (u:User) RETURN u.name, u.score ORDER BY u.name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 || res.Values(0)[0].String() != "'ada'" {
		t.Fatalf("recovered data wrong: %d rows", res.NumRows())
	}
	if len(db2.Indexes()) != 1 {
		t.Fatalf("index definition not recovered: %v", db2.Indexes())
	}
	status, ok := db2.WALStatus()
	if !ok || status.Dir != dir {
		t.Fatalf("WALStatus = %+v, %v", status, ok)
	}
}

// TestNoOpAndFailedStatementsKeepEpochDurable: a MERGE SAME that only
// matched and a failing statement publish no epoch, so the epoch a
// durable database reports before Close is the one it recovers to.
func TestNoOpAndFailedStatementsKeepEpochDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`CREATE (:User {name: 'ada'})-[:KNOWS]->(:User {name: 'bob'})`,
		`MERGE SAME (:User {name: 'ada'})`,
	} {
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if _, err := db.Exec(`MATCH (u:User {name: 'ada'}) DELETE u`, nil); err == nil {
		t.Fatal("strict DELETE of a node with a relationship succeeded")
	}
	epoch := db.Epoch()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Epoch() != epoch {
		t.Fatalf("recovered epoch %d, want %d", db2.Epoch(), epoch)
	}
}

func TestOpenDirSyncModes(t *testing.T) {
	for _, d := range []Durability{
		{Sync: SyncAlways},
		{Sync: SyncInterval},
		{Sync: SyncNever},
	} {
		dir := t.TempDir()
		db, err := OpenDir(dir, WithDurability(d))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(`CREATE (:N {m: 'x'})`, nil); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("sync mode %v: close: %v", d.Sync, err)
		}
		db2, err := OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if db2.NumNodes() != 1 {
			t.Fatalf("sync mode %v: node lost across clean close", d.Sync)
		}
		db2.Close()
	}
}

func TestCheckpointCompactsAndSurvives(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := db.Exec(`CREATE (:Row {pad: 'xxxxxxxxxxxxxxxxxxxxxxxx'})`, nil); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := db.WALStatus()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, _ := db.WALStatus()
	if after.Checkpoints != before.Checkpoints+1 || after.Bytes >= before.Bytes {
		t.Fatalf("checkpoint did not compact: %+v -> %+v", before, after)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.NumNodes() != 20 {
		t.Fatalf("post-checkpoint recovery lost rows: %d", db2.NumNodes())
	}
}

func TestExplicitTransactionDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess := db.Session()
	for _, q := range []string{
		"BEGIN", `CREATE (:Kept {a: 1})`, "COMMIT",
		"BEGIN", `CREATE (:Dropped {b: 2})`, "ROLLBACK",
	} {
		if _, err := sess.Exec(q, nil); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	sess.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Exec(`MATCH (n) RETURN labels(n)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || !strings.Contains(res.Values(0)[0].String(), "Kept") {
		t.Fatalf("transaction durability wrong: %d rows", res.NumRows())
	}
}

func TestInMemoryHasNoWAL(t *testing.T) {
	db := Open()
	if db.Durable() {
		t.Fatal("in-memory database claims durability")
	}
	if _, ok := db.WALStatus(); ok {
		t.Fatal("in-memory database reports a WAL status")
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("in-memory Checkpoint did not error")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("in-memory Close: %v", err)
	}
}

func TestSaveFileAtomic(t *testing.T) {
	db := Open()
	if _, err := db.Exec(`CREATE (:A {x: 1})`, nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.json")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite in place: still atomic, still loadable.
	if _, err := db.Exec(`CREATE (:B {y: 2})`, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) == string(second) {
		t.Fatal("second save did not change the file")
	}
	data, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Load(data)
	data.Close()
	if err != nil {
		t.Fatal(err)
	}
	if db2.NumNodes() != 2 {
		t.Fatalf("loaded %d nodes, want 2", db2.NumNodes())
	}
	// Saving into a directory that does not exist fails without
	// touching the existing file or leaving temp litter.
	if err := db.SaveFile(filepath.Join(dir, "missing", "graph.json")); err == nil {
		t.Fatal("SaveFile into a missing directory did not error")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(second) {
		t.Fatal("failed save clobbered the existing file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %v", entries)
	}
}
