package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/value"
)

// mutate runs one committed transaction on st covering every delta
// section: creates, deletes, labels, properties (NaN included), and
// an index flip.
func mutateAll(t testing.TB, st *Store) {
	t.Helper()
	w := st.BeginWrite()
	g := w.Graph()
	a := g.CreateNode([]string{"User"}, value.Map{"name": value.String("ada"), "f": value.Float(math.NaN())})
	b := g.CreateNode([]string{"User", "Admin"}, value.Map{"n": value.Int(1)})
	if _, err := g.CreateRel(a.ID, b.ID, "KNOWS", value.Map{"w": value.Float(1.5)}); err != nil {
		t.Fatal(err)
	}
	g.CreateIndex("User", "name")
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	w = st.BeginWrite()
	g = w.Graph()
	c := g.CreateNode(nil, nil)
	if err := g.AddLabel(c.ID, "Temp"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetNodeProp(a.ID, "name", value.String("grace")); err != nil {
		t.Fatal(err)
	}
	if err := g.SetNodeProp(b.ID, "n", value.NullValue); err != nil {
		t.Fatal(err)
	}
	g.DetachDeleteNode(b.ID)
	g.DropIndex("User", "name")
	g.CreateIndex("Temp", "x")
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

// reopenAndCompare recovers dir and asserts the recovered graph is
// bit-identical to want.
func reopenAndCompare(t *testing.T, dir string, want *Graph, wantEpoch int64) {
	t.Helper()
	st, wal, err := Recover(dir, Durability{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	snap := st.Acquire()
	defer snap.Release()
	if err := Identical(want, snap.Graph()); err != nil {
		t.Fatalf("recovered graph differs: %v", err)
	}
	if st.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch = %d, want %d", st.Epoch(), wantEpoch)
	}
}

func TestDurableCommitRecovery(t *testing.T) {
	dir := t.TempDir()
	st, wal, err := Recover(dir, Durability{})
	if err != nil {
		t.Fatal(err)
	}
	mutateAll(t, st)
	snap := st.Acquire()
	want := snap.Graph().Clone()
	snap.Release()
	epoch := st.Epoch()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	reopenAndCompare(t, dir, want, epoch)
}

func TestRecoveryWithoutCleanClose(t *testing.T) {
	// No Close at all: SyncAlways means every commit is already on
	// disk, so recovery must still see everything.
	dir := t.TempDir()
	st, _, err := Recover(dir, Durability{})
	if err != nil {
		t.Fatal(err)
	}
	mutateAll(t, st)
	snap := st.Acquire()
	want := snap.Graph().Clone()
	epoch := st.Epoch()
	snap.Release()
	reopenAndCompare(t, dir, want, epoch)
}

func TestRollbackWritesNoRecord(t *testing.T) {
	dir := t.TempDir()
	st, wal, err := Recover(dir, Durability{})
	if err != nil {
		t.Fatal(err)
	}
	mutateAll(t, st)
	// Clone before the rollback: ids the rolled-back transaction
	// consumed are never logged, so recovery resumes at this state.
	snap := st.Acquire()
	want := snap.Graph().Clone()
	snap.Release()
	before := wal.Status().Records
	w := st.BeginWrite()
	w.Graph().CreateNode([]string{"Ghost"}, nil)
	w.Rollback()
	if got := wal.Status().Records; got != before {
		t.Fatalf("rollback appended a record: %d -> %d", before, got)
	}
	epoch := st.Epoch()
	if epoch != wal.Status().LastEpoch {
		t.Fatalf("rollback moved the epoch to %d past the last record %d", epoch, wal.Status().LastEpoch)
	}
	wal.Close()
	reopenAndCompare(t, dir, want, epoch)
}

// TestNetNothingCommitWritesRecord: a transaction whose changes cancel
// out (a node created and deleted again) still publishes an epoch, so
// it still gets a record — an empty delta carrying the id counters it
// consumed — and recovery lands on that epoch with those counters. A
// transaction with an empty journal publishes nothing and logs nothing.
func TestNetNothingCommitWritesRecord(t *testing.T) {
	dir := t.TempDir()
	st, wal, err := Recover(dir, Durability{})
	if err != nil {
		t.Fatal(err)
	}
	mutateAll(t, st)
	w := st.BeginWrite()
	n := w.Graph().CreateNode([]string{"Tmp"}, nil)
	if err := w.Graph().DeleteNode(n.ID); err != nil {
		t.Fatal(err)
	}
	before := wal.Status().Records
	epoch, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if got := wal.Status().Records; got != before+1 {
		t.Fatalf("net-nothing commit appended %d records, want 1", got-before)
	}
	if _, err := st.BeginWrite().Commit(); err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != epoch || wal.Status().Records != before+1 {
		t.Fatalf("empty commit moved the epoch to %d or logged a record", st.Epoch())
	}
	snap := st.Acquire()
	want := snap.Graph().Clone()
	snap.Release()
	if want.nextNode != n.ID {
		t.Fatalf("published id counter %d, want %d", want.nextNode, n.ID)
	}
	wal.Close()
	reopenAndCompare(t, dir, want, epoch)
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, wal, err := Recover(dir, Durability{})
	if err != nil {
		t.Fatal(err)
	}
	mutateAll(t, st)
	snap := st.Acquire()
	want := snap.Graph().Clone()
	epoch := st.Epoch()
	snap.Release()
	wal.Close()

	logPath := filepath.Join(dir, walFileName)
	intact, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tear := range [][]byte{
		{0x01},                   // lone garbage byte: torn frame header
		{0xff, 0xff, 0xff, 0x7f}, // absurd length prefix
		// A full frame header promising more payload than exists.
		func() []byte {
			b := make([]byte, 8+3)
			binary.LittleEndian.PutUint32(b, 100)
			return b
		}(),
		// A complete frame whose checksum does not match.
		func() []byte {
			payload := []byte("not a record")
			b := make([]byte, 8)
			binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload)+1)
			return append(b, payload...)
		}(),
	} {
		if err := os.WriteFile(logPath, append(append([]byte(nil), intact...), tear...), 0o666); err != nil {
			t.Fatal(err)
		}
		reopenAndCompare(t, dir, want, epoch)
		after, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, intact) {
			t.Fatalf("torn tail not truncated back to the valid prefix (len %d vs %d)", len(after), len(intact))
		}
	}
	// A torn header on a brand-new log is also recoverable: nothing was
	// committed yet.
	empty := t.TempDir()
	if err := os.WriteFile(filepath.Join(empty, walFileName), []byte(walMagic[:4]), 0o666); err != nil {
		t.Fatal(err)
	}
	reopenAndCompare(t, empty, New(), 0)
}

func TestChecksummedCorruptionIsFatal(t *testing.T) {
	// A record that passes its CRC but does not decode is corruption,
	// not a torn tail: recovery must refuse, not silently truncate.
	dir := t.TempDir()
	_, wal, err := Recover(dir, Durability{})
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()
	payload := []byte{99} // unknown record version
	frame := make([]byte, 8)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(frame)
	f.Write(payload)
	f.Close()
	if _, _, err := Recover(dir, Durability{}); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("recovery of a checksummed-but-invalid record: err = %v, want corruption error", err)
	}
}

func TestCheckpointCompactsLog(t *testing.T) {
	dir := t.TempDir()
	st, wal, err := Recover(dir, Durability{CheckpointBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		w := st.BeginWrite()
		w.Graph().CreateNode([]string{"N"}, value.Map{"i": value.Int(int64(i))})
		if _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	status := wal.Status()
	if status.Checkpoints == 0 {
		t.Fatal("no automatic checkpoint despite tiny threshold")
	}
	if status.Bytes >= 50*20 {
		t.Fatalf("log not compacted: %d bytes after %d checkpoints", status.Bytes, status.Checkpoints)
	}
	snap := st.Acquire()
	want := snap.Graph().Clone()
	epoch := st.Epoch()
	snap.Release()
	wal.Close()
	reopenAndCompare(t, dir, want, epoch)
}

func TestExplicitCheckpointAndTruncateCrashWindow(t *testing.T) {
	dir := t.TempDir()
	st, wal, err := Recover(dir, Durability{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mutateAll(t, st)
	// Save the pre-checkpoint log, checkpoint, then splice the old
	// records back in after the fresh header: the on-disk state of a
	// crash after the snapshot rename but before the log truncate.
	logPath := filepath.Join(dir, walFileName)
	oldLog, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap := st.Acquire()
	want := snap.Graph().Clone()
	epoch := st.Epoch()
	snap.Release()
	wal.Close()
	if err := os.WriteFile(logPath, oldLog, 0o666); err != nil {
		t.Fatal(err)
	}
	// Every record in the restored log has epoch <= the snapshot's;
	// recovery must skip them all (applying them would duplicate
	// creations and fail).
	st2, wal2, err := Recover(dir, Durability{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := wal2.Status().Replayed; got != 0 {
		t.Fatalf("replayed %d records already covered by the checkpoint", got)
	}
	snap2 := st2.Acquire()
	defer snap2.Release()
	if err := Identical(want, snap2.Graph()); err != nil {
		t.Fatalf("recovered graph differs: %v", err)
	}
	if st2.Epoch() != epoch {
		t.Fatalf("recovered epoch = %d, want %d", st2.Epoch(), epoch)
	}
}

func TestCheckpointOfNonDurableStore(t *testing.T) {
	st := NewStore(New())
	if err := st.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on an in-memory store did not error")
	}
	if st.WAL() != nil {
		t.Fatal("in-memory store reports a WAL")
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	// Every delta section, via a real committed transaction's delta.
	dir := t.TempDir()
	st, wal, err := Recover(dir, Durability{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	var got *Delta
	st.OnCommit(func(d *Delta) { got = d })
	mutateAll(t, st)
	if got == nil {
		t.Fatal("no delta delivered")
	}
	snap := st.Acquire()
	defer snap.Release()
	rec := recordFromDelta(got, snap.Graph())
	payload, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	payload2, err := encodeRecord(rec2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, payload2) {
		t.Fatal("record does not round-trip bit-identically")
	}
}

func TestDecodeRecordRejectsHostileIDs(t *testing.T) {
	rec := &walRecord{epoch: 1, nodesCreated: []walNode{{id: maxEntityID + 1}}}
	payload, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRecord(payload); err == nil {
		t.Fatal("oversized entity id accepted")
	}
}

func TestSnapshotDeltaStillLazyWithHooks(t *testing.T) {
	// The WAL pre-nets the delta; Snapshot.Delta must return the same
	// object, not re-derive or lose it.
	dir := t.TempDir()
	st, wal, err := Recover(dir, Durability{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	var hooked *Delta
	st.OnCommit(func(d *Delta) { hooked = d })
	w := st.BeginWrite()
	w.Graph().CreateNode([]string{"A"}, nil)
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := st.Acquire()
	defer snap.Release()
	if snap.Delta() != hooked || hooked == nil {
		t.Fatal("snapshot delta and hook delta diverge under durability")
	}
	if len(hooked.NodesCreated) != 1 {
		t.Fatalf("delta content wrong: %+v", hooked)
	}
}
