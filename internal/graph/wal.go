package graph

// The write-ahead log: durability for the epoch store.
//
// Every published epoch appends one binary record — the committed
// epoch's net Delta (empty when the transaction's changes cancelled
// out) plus the final values it leaves behind — to dir/wal.log before
// the epoch is published. Crash recovery (recovery.go) replays the log
// over the latest checkpoint snapshot (dir/snapshot.json), so the
// recovered graph equals the committed prefix that reached disk.
//
// # Record format
//
// The log starts with a magic header, then length-prefixed records:
//
//	[uint32le payload length][uint32le IEEE CRC-32 of payload][payload]
//
// The payload encodes, with the varint/value codec of binval.go and in
// this order: a version byte, the epoch number, the post-commit id
// counters, then the delta sections in replay order — relationships
// deleted, nodes deleted, nodes created (labels and properties
// inline), relationships created, labels added/removed, properties
// touched (with their final value, or a removal marker), indexes
// dropped, indexes created. A Delta alone is value-blind (PropsTouched
// records keys, not values), so the appender reads final values out of
// the committing transaction's graph.
//
// A torn tail — the process died mid-append — fails the length or CRC
// check; recovery truncates the log at the last complete record. A
// record that passes its CRC but fails to decode or apply is real
// corruption and fails recovery loudly.
//
// # Checkpoints
//
// When the log exceeds Durability.CheckpointBytes (and on explicit
// Store.Checkpoint), the current graph is written as a codec snapshot
// to a temp file in the same directory, fsynced, and renamed over
// dir/snapshot.json — the rename is the atomic commit point, so a
// crash mid-checkpoint leaves the previous snapshot intact. Only after
// the rename is the log truncated and its header rewritten. A crash
// between rename and truncate double-covers some epochs; records carry
// their epoch number and recovery skips those at or below the
// snapshot's, so replay is idempotent across that window.
//
// # Failure stickiness
//
// A failed append may leave a partial record at the log's tail.
// Appending after it would put good records behind garbage where
// recovery's torn-tail truncation would drop them, so the first append
// or sync failure poisons the WAL: every later operation returns the
// same error, and the store surfaces it from Commit. The in-memory
// epoch is still published; the caller decides whether to keep
// computing on memory or to stop.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/value"
)

// SyncMode selects when the write-ahead log is fsynced.
type SyncMode int

// Sync modes.
const (
	// SyncAlways fsyncs the log on every commit before the epoch is
	// published: a committed transaction survives any crash. The
	// default.
	SyncAlways SyncMode = iota
	// SyncInterval lets commits return after the buffered write and
	// fsyncs in the background every Durability.SyncEvery: a crash can
	// lose at most the last interval's commits (the log still always
	// recovers to a consistent committed prefix).
	SyncInterval
	// SyncNever leaves flushing to the operating system: cheapest, and
	// a crash loses whatever the OS had not written back yet.
	SyncNever
)

// String names the sync mode ("always", "interval", "never").
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(m))
	}
}

// Durability configures the write-ahead log of a durable store: when
// the log is fsynced and how large it may grow before a checkpoint
// compacts it. The zero value is the safe default: fsync on every
// commit, checkpoint every 4 MiB of log.
type Durability struct {
	// Sync selects the fsync policy (default SyncAlways).
	Sync SyncMode
	// SyncEvery is the background fsync cadence under SyncInterval
	// (default 5ms; ignored in the other modes).
	SyncEvery time.Duration
	// CheckpointBytes is the log size that triggers an automatic
	// checkpoint-and-truncate (default 4 MiB; negative disables
	// automatic checkpoints).
	CheckpointBytes int64
}

const (
	defaultSyncEvery       = 5 * time.Millisecond
	defaultCheckpointBytes = 4 << 20
)

// syncEvery resolves the configured or default background cadence.
func (d Durability) syncEvery() time.Duration {
	if d.SyncEvery > 0 {
		return d.SyncEvery
	}
	return defaultSyncEvery
}

// checkpointBytes resolves the configured or default checkpoint
// threshold; 0 means "disabled" to callers.
func (d Durability) checkpointBytes() int64 {
	switch {
	case d.CheckpointBytes > 0:
		return d.CheckpointBytes
	case d.CheckpointBytes < 0:
		return 0
	default:
		return defaultCheckpointBytes
	}
}

const (
	walMagic          = "GRAPHWAL1\n"
	walFileName       = "wal.log"
	snapshotFileName  = "snapshot.json"
	walTempPrefix     = ".wal-tmp-"
	maxWALRecordBytes = 1 << 27
	walRecVersion     = 1
)

// walFile is the file handle the WAL writes through. os.File satisfies
// it; tests substitute a fault-injecting double that kills writes at a
// chosen byte offset (crash_test.go).
type walFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
	Name() string
}

// walFS is the filesystem surface the WAL mutates through, injectable
// for fault testing. Read paths (recovery scans) use the real
// filesystem directly — the fault model is "the process dies during a
// write", and recovery runs in the next process.
type walFS interface {
	OpenAppend(path string) (walFile, error)
	CreateTemp(dir, pattern string) (walFile, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	SyncDir(dir string) error
}

// osFS is the production walFS.
type osFS struct{}

func (osFS) OpenAppend(path string) (walFile, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o666)
}

func (osFS) CreateTemp(dir, pattern string) (walFile, error) {
	return os.CreateTemp(dir, pattern)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

// SyncDir fsyncs the directory so a just-renamed file's entry is
// durable (best effort: some filesystems refuse directory fsync).
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// WAL is the write-ahead log of one durable Store. All methods are
// safe for concurrent use; the store calls Append under its writer
// baton. Obtain one from Recover.
type WAL struct {
	dir  string
	fs   walFS
	opts Durability

	mu          sync.Mutex
	f           walFile
	size        int64 // complete bytes in wal.log
	lastEpoch   int64 // epoch of the newest record (appended or replayed)
	ckptEpoch   int64 // epoch covered by snapshot.json
	records     int64 // records appended since open
	replayed    int64 // records replayed by recovery at open
	checkpoints int64 // checkpoints taken since open
	failed      error // sticky first failure
	dirty       bool  // unsynced bytes (SyncInterval)
	closed      bool

	flushStop chan struct{}
	flushDone chan struct{}
}

// openWAL opens dir/wal.log for appending after recovery has scanned
// (and torn-tail-truncated) it. size is the byte length of the valid
// prefix; a zero-size log gets a fresh magic header.
func openWAL(dir string, opts Durability, fs walFS, size, lastEpoch, ckptEpoch, replayed int64) (*WAL, error) {
	f, err := fs.OpenAppend(filepath.Join(dir, walFileName))
	if err != nil {
		return nil, fmt.Errorf("graph: open wal: %w", err)
	}
	w := &WAL{
		dir: dir, fs: fs, opts: opts, f: f,
		size: size, lastEpoch: lastEpoch, ckptEpoch: ckptEpoch, replayed: replayed,
	}
	if size == 0 {
		if err := w.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
	}
	if opts.Sync == SyncInterval {
		w.flushStop = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flushLoop()
	}
	return w, nil
}

// writeHeader writes and syncs the magic header of an empty log.
// Callers hold mu (or own the WAL exclusively).
func (w *WAL) writeHeader() error {
	if _, err := io.WriteString(w.f, walMagic); err != nil {
		return w.fail(fmt.Errorf("graph: wal header: %w", err))
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(fmt.Errorf("graph: wal header sync: %w", err))
	}
	w.size = int64(len(walMagic))
	return nil
}

// fail records the first failure and poisons the WAL. Callers hold mu.
func (w *WAL) fail(err error) error {
	if w.failed == nil {
		w.failed = err
	}
	return w.failed
}

// flushLoop is the SyncInterval background fsyncer.
func (w *WAL) flushLoop() {
	defer close(w.flushDone)
	t := time.NewTicker(w.opts.syncEvery())
	defer t.Stop()
	for {
		select {
		case <-w.flushStop:
			return
		case <-t.C:
			w.mu.Lock()
			if w.dirty && w.failed == nil && !w.closed {
				if err := w.f.Sync(); err != nil {
					w.fail(fmt.Errorf("graph: wal sync: %w", err))
				}
				w.dirty = false
			}
			w.mu.Unlock()
		}
	}
}

// Append writes the record for one committed epoch. d must be the
// epoch's net delta with Epoch set; g the post-commit graph the
// record's values are read from. Called by the store under the writer
// baton, before the epoch is published.
func (w *WAL) Append(d *Delta, g *Graph) error {
	payload, err := encodeRecord(recordFromDelta(d, g))
	if err != nil {
		return err
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	if w.closed {
		return fmt.Errorf("graph: append to closed wal")
	}
	if _, err := w.f.Write(frame); err != nil {
		// The tail may now hold a partial record; appending after it
		// would hide later records behind the torn one. Poison.
		return w.fail(fmt.Errorf("graph: wal append: %w", err))
	}
	w.size += int64(len(frame))
	w.records++
	w.lastEpoch = d.Epoch
	switch w.opts.Sync {
	case SyncAlways:
		if err := w.f.Sync(); err != nil {
			return w.fail(fmt.Errorf("graph: wal sync: %w", err))
		}
	case SyncInterval:
		w.dirty = true
	}
	return nil
}

// wantCheckpoint reports whether the log has outgrown its checkpoint
// threshold.
func (w *WAL) wantCheckpoint() bool {
	limit := w.opts.checkpointBytes()
	if limit <= 0 {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed == nil && !w.closed && w.size >= limit
}

// checkpoint writes g (the state as of epoch) as the new snapshot and
// truncates the log. Called with the store's writer baton held, so g
// cannot change underneath. The snapshot lands via temp-file + rename:
// until the rename the old snapshot is intact, and a failure before it
// leaves the log untouched — nothing durable is lost, the error only
// means compaction didn't happen.
func (w *WAL) checkpoint(g *Graph, epoch int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	if w.closed {
		return fmt.Errorf("graph: checkpoint of closed wal")
	}
	tmp, err := w.fs.CreateTemp(w.dir, walTempPrefix+"*")
	if err != nil {
		return fmt.Errorf("graph: checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	discard := func(e error) error {
		tmp.Close()
		w.fs.Remove(tmpName)
		return fmt.Errorf("graph: checkpoint: %w", e)
	}
	bw := bufio.NewWriterSize(tmp, 64<<10)
	if err := writeJSONState(bw, g, epoch); err != nil {
		return discard(err)
	}
	if err := bw.Flush(); err != nil {
		return discard(err)
	}
	if err := tmp.Sync(); err != nil {
		return discard(err)
	}
	if err := tmp.Close(); err != nil {
		w.fs.Remove(tmpName)
		return fmt.Errorf("graph: checkpoint: %w", err)
	}
	if err := w.fs.Rename(tmpName, filepath.Join(w.dir, snapshotFileName)); err != nil {
		w.fs.Remove(tmpName)
		return fmt.Errorf("graph: checkpoint: %w", err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		return fmt.Errorf("graph: checkpoint: %w", err)
	}
	// The snapshot is durable: every epoch <= epoch is covered. Prune
	// the log. If the truncate fails the log just keeps its old records
	// (recovery skips them by epoch); a failure after it poisons the
	// WAL, because the append offset can no longer be trusted.
	w.ckptEpoch = epoch
	w.checkpoints++
	if err := w.f.Truncate(0); err != nil {
		return nil
	}
	w.size = 0
	return w.writeHeader()
}

// Close stops the background fsyncer, flushes the log and closes it.
// Further operations fail. It returns the WAL's sticky error, if any.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.failed
		w.mu.Unlock()
		return err
	}
	w.closed = true
	stop := w.flushStop
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-w.flushDone
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed == nil {
		if err := w.f.Sync(); err != nil {
			w.fail(fmt.Errorf("graph: wal close sync: %w", err))
		}
	}
	w.f.Close()
	return w.failed
}

// WALStatus is a point-in-time summary of a write-ahead log, for
// observability (cypher.DB.WALStatus, the shell's :wal meta).
type WALStatus struct {
	// Dir is the data directory holding wal.log and snapshot.json.
	Dir string
	// Sync is the configured fsync policy.
	Sync SyncMode
	// Bytes is the current byte length of the log.
	Bytes int64
	// LastEpoch is the newest epoch with a durable log record (or
	// covered by the snapshot, if newer).
	LastEpoch int64
	// CheckpointEpoch is the epoch the current snapshot covers.
	CheckpointEpoch int64
	// Records counts records appended since open.
	Records int64
	// Replayed counts records recovery replayed at open.
	Replayed int64
	// Checkpoints counts checkpoints taken since open.
	Checkpoints int64
	// Err is the sticky failure that poisoned the log, if any.
	Err error
}

// Status reports the WAL's current counters.
func (w *WAL) Status() WALStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	last := w.lastEpoch
	if w.ckptEpoch > last {
		last = w.ckptEpoch
	}
	return WALStatus{
		Dir:             w.dir,
		Sync:            w.opts.Sync,
		Bytes:           w.size,
		LastEpoch:       last,
		CheckpointEpoch: w.ckptEpoch,
		Records:         w.records,
		Replayed:        w.replayed,
		Checkpoints:     w.checkpoints,
		Err:             w.failed,
	}
}

// ---------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------

// walKV is one serialized property.
type walKV struct {
	key string
	val value.Value
}

// walNode is one created node in a record.
type walNode struct {
	id     int64
	labels []string
	props  []walKV
}

// walRel is one created relationship in a record.
type walRel struct {
	id       int64
	typ      string
	src, tgt int64
	props    []walKV
}

// walLabel is one (node, label) change in a record.
type walLabel struct {
	id    int64
	label string
}

// walProp is one property write on a surviving entity: the final value
// when has is true, a removal when false.
type walProp struct {
	rel bool // relationship property (else node)
	id  int64
	key string
	has bool
	val value.Value
}

// walRecord is the decoded form of one log record: a Delta with the
// values the value-blind Delta omits, ready to replay.
type walRecord struct {
	epoch             int64
	nextNode, nextRel int64
	relsDeleted       []int64
	nodesDeleted      []int64
	nodesCreated      []walNode
	relsCreated       []walRel
	labelsAdded       []walLabel
	labelsRemoved     []walLabel
	props             []walProp
	indexesDropped    []IndexKey
	indexesCreated    []IndexKey
}

// recordFromDelta builds the log record for a committed delta, reading
// created entities' content and touched properties' final values from
// the post-commit graph. Delta slices are sorted and entity content is
// emitted in sorted order, so the encoding is deterministic.
func recordFromDelta(d *Delta, g *Graph) *walRecord {
	rec := &walRecord{
		epoch:    d.Epoch,
		nextNode: int64(g.nextNode),
		nextRel:  int64(g.nextRel),
	}
	for _, id := range d.RelsDeleted {
		rec.relsDeleted = append(rec.relsDeleted, int64(id))
	}
	for _, id := range d.NodesDeleted {
		rec.nodesDeleted = append(rec.nodesDeleted, int64(id))
	}
	for _, id := range d.NodesCreated {
		n := g.Node(id)
		wn := walNode{id: int64(id), labels: g.LabelNames(n), props: g.sortedKVs(n.Props)}
		rec.nodesCreated = append(rec.nodesCreated, wn)
	}
	for _, id := range d.RelsCreated {
		r := g.Rel(id)
		wr := walRel{id: int64(id), typ: g.TypeName(r), src: int64(r.Src), tgt: int64(r.Tgt), props: g.sortedKVs(r.Props)}
		rec.relsCreated = append(rec.relsCreated, wr)
	}
	for _, nl := range d.LabelsAdded {
		rec.labelsAdded = append(rec.labelsAdded, walLabel{id: int64(nl.Node), label: nl.Label})
	}
	for _, nl := range d.LabelsRemoved {
		rec.labelsRemoved = append(rec.labelsRemoved, walLabel{id: int64(nl.Node), label: nl.Label})
	}
	for _, t := range d.PropsTouched {
		p := walProp{rel: t.Entity.Kind == EntityRel, id: t.Entity.ID, key: t.Key}
		if p.rel {
			if r := g.Rel(RelID(p.id)); r != nil {
				p.val, p.has = g.Prop(r.Props, p.key)
			}
		} else {
			if n := g.Node(NodeID(p.id)); n != nil {
				p.val, p.has = g.Prop(n.Props, p.key)
			}
		}
		rec.props = append(rec.props, p)
	}
	rec.indexesDropped = append(rec.indexesDropped, d.IndexesDropped...)
	rec.indexesCreated = append(rec.indexesCreated, d.IndexesCreated...)
	return rec
}

// sortedKVs lists a property list by key name.
func (g *Graph) sortedKVs(ps Props) []walKV {
	var out []walKV
	for _, p := range ps {
		out = append(out, walKV{key: g.SymName(p.Key), val: p.Val})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// encodeRecord serializes a record payload (framing is the caller's).
func encodeRecord(rec *walRecord) ([]byte, error) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	w.WriteByte(walRecVersion)
	WriteVarint(w, rec.epoch)
	WriteVarint(w, rec.nextNode)
	WriteVarint(w, rec.nextRel)
	writeIDs := func(ids []int64) {
		WriteUvarint(w, uint64(len(ids)))
		for _, id := range ids {
			WriteVarint(w, id)
		}
	}
	writeProps := func(props []walKV) error {
		WriteUvarint(w, uint64(len(props)))
		for _, kv := range props {
			WriteBinaryString(w, kv.key)
			if err := WriteBinaryValue(w, kv.val); err != nil {
				return err
			}
		}
		return nil
	}
	writeIDs(rec.relsDeleted)
	writeIDs(rec.nodesDeleted)
	WriteUvarint(w, uint64(len(rec.nodesCreated)))
	for _, n := range rec.nodesCreated {
		WriteVarint(w, n.id)
		WriteUvarint(w, uint64(len(n.labels)))
		for _, l := range n.labels {
			WriteBinaryString(w, l)
		}
		if err := writeProps(n.props); err != nil {
			return nil, err
		}
	}
	WriteUvarint(w, uint64(len(rec.relsCreated)))
	for _, r := range rec.relsCreated {
		WriteVarint(w, r.id)
		WriteBinaryString(w, r.typ)
		WriteVarint(w, r.src)
		WriteVarint(w, r.tgt)
		if err := writeProps(r.props); err != nil {
			return nil, err
		}
	}
	writeLabels := func(ls []walLabel) {
		WriteUvarint(w, uint64(len(ls)))
		for _, l := range ls {
			WriteVarint(w, l.id)
			WriteBinaryString(w, l.label)
		}
	}
	writeLabels(rec.labelsAdded)
	writeLabels(rec.labelsRemoved)
	WriteUvarint(w, uint64(len(rec.props)))
	for _, p := range rec.props {
		kind := byte(0)
		if p.rel {
			kind = 1
		}
		w.WriteByte(kind)
		WriteVarint(w, p.id)
		WriteBinaryString(w, p.key)
		has := byte(0)
		if p.has {
			has = 1
		}
		w.WriteByte(has)
		if p.has {
			if err := WriteBinaryValue(w, p.val); err != nil {
				return nil, err
			}
		}
	}
	writeIndexes := func(ks []IndexKey) {
		WriteUvarint(w, uint64(len(ks)))
		for _, k := range ks {
			WriteBinaryString(w, k.Label)
			WriteBinaryString(w, k.Prop)
		}
	}
	writeIndexes(rec.indexesDropped)
	writeIndexes(rec.indexesCreated)
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if buf.Len() > maxWALRecordBytes {
		return nil, fmt.Errorf("graph: wal record of %d bytes exceeds limit", buf.Len())
	}
	return buf.Bytes(), nil
}

// decodeRecord parses one record payload. Counts and ids are validated
// so a hostile payload cannot force huge allocations or absurd id
// directory growth; structural consistency (endpoints exist, no
// duplicates) is validated by apply.
func decodeRecord(payload []byte) (*walRecord, error) {
	limit := uint64(len(payload))
	r := bufio.NewReader(bytes.NewReader(payload))
	ver, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != walRecVersion {
		return nil, fmt.Errorf("graph: wal record version %d not supported", ver)
	}
	rec := &walRecord{}
	readCount := func() (uint64, error) {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, err
		}
		// Every element costs at least one payload byte.
		if n > limit {
			return 0, fmt.Errorf("graph: wal record count %d exceeds payload", n)
		}
		return n, nil
	}
	readID := func() (int64, error) {
		id, err := binary.ReadVarint(r)
		if err != nil {
			return 0, err
		}
		if id <= 0 || id > maxEntityID {
			return 0, fmt.Errorf("graph: wal record entity id %d out of range", id)
		}
		return id, nil
	}
	if rec.epoch, err = binary.ReadVarint(r); err != nil {
		return nil, err
	}
	if rec.epoch <= 0 {
		return nil, fmt.Errorf("graph: wal record epoch %d out of range", rec.epoch)
	}
	if rec.nextNode, err = binary.ReadVarint(r); err != nil {
		return nil, err
	}
	if rec.nextRel, err = binary.ReadVarint(r); err != nil {
		return nil, err
	}
	if rec.nextNode < 0 || rec.nextNode > maxEntityID || rec.nextRel < 0 || rec.nextRel > maxEntityID {
		return nil, fmt.Errorf("graph: wal record id counters out of range")
	}
	readIDs := func() ([]int64, error) {
		n, err := readCount()
		if err != nil {
			return nil, err
		}
		ids := make([]int64, 0, binPrealloc(n))
		for i := uint64(0); i < n; i++ {
			id, err := readID()
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
		return ids, nil
	}
	readProps := func() ([]walKV, error) {
		n, err := readCount()
		if err != nil {
			return nil, err
		}
		props := make([]walKV, 0, binPrealloc(n))
		for i := uint64(0); i < n; i++ {
			k, err := ReadBinaryString(r)
			if err != nil {
				return nil, err
			}
			v, err := ReadBinaryValue(r)
			if err != nil {
				return nil, err
			}
			props = append(props, walKV{key: k, val: v})
		}
		return props, nil
	}
	if rec.relsDeleted, err = readIDs(); err != nil {
		return nil, err
	}
	if rec.nodesDeleted, err = readIDs(); err != nil {
		return nil, err
	}
	n, err := readCount()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		var wn walNode
		if wn.id, err = readID(); err != nil {
			return nil, err
		}
		nl, err := readCount()
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < nl; j++ {
			l, err := ReadBinaryString(r)
			if err != nil {
				return nil, err
			}
			wn.labels = append(wn.labels, l)
		}
		if wn.props, err = readProps(); err != nil {
			return nil, err
		}
		rec.nodesCreated = append(rec.nodesCreated, wn)
	}
	if n, err = readCount(); err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		var wr walRel
		if wr.id, err = readID(); err != nil {
			return nil, err
		}
		if wr.typ, err = ReadBinaryString(r); err != nil {
			return nil, err
		}
		if wr.src, err = readID(); err != nil {
			return nil, err
		}
		if wr.tgt, err = readID(); err != nil {
			return nil, err
		}
		if wr.props, err = readProps(); err != nil {
			return nil, err
		}
		rec.relsCreated = append(rec.relsCreated, wr)
	}
	readLabels := func() ([]walLabel, error) {
		n, err := readCount()
		if err != nil {
			return nil, err
		}
		ls := make([]walLabel, 0, binPrealloc(n))
		for i := uint64(0); i < n; i++ {
			var wl walLabel
			if wl.id, err = readID(); err != nil {
				return nil, err
			}
			if wl.label, err = ReadBinaryString(r); err != nil {
				return nil, err
			}
			ls = append(ls, wl)
		}
		return ls, nil
	}
	if rec.labelsAdded, err = readLabels(); err != nil {
		return nil, err
	}
	if rec.labelsRemoved, err = readLabels(); err != nil {
		return nil, err
	}
	if n, err = readCount(); err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		var p walProp
		kind, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		if kind > 1 {
			return nil, fmt.Errorf("graph: wal record property kind %d", kind)
		}
		p.rel = kind == 1
		if p.id, err = readID(); err != nil {
			return nil, err
		}
		if p.key, err = ReadBinaryString(r); err != nil {
			return nil, err
		}
		has, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		if has > 1 {
			return nil, fmt.Errorf("graph: wal record property marker %d", has)
		}
		p.has = has == 1
		if p.has {
			if p.val, err = ReadBinaryValue(r); err != nil {
				return nil, err
			}
		}
		rec.props = append(rec.props, p)
	}
	readIndexes := func() ([]IndexKey, error) {
		n, err := readCount()
		if err != nil {
			return nil, err
		}
		ks := make([]IndexKey, 0, binPrealloc(n))
		for i := uint64(0); i < n; i++ {
			var k IndexKey
			if k.Label, err = ReadBinaryString(r); err != nil {
				return nil, err
			}
			if k.Prop, err = ReadBinaryString(r); err != nil {
				return nil, err
			}
			if k.Label == "" || k.Prop == "" {
				return nil, fmt.Errorf("graph: wal record malformed index key")
			}
			ks = append(ks, k)
		}
		return ks, nil
	}
	if rec.indexesDropped, err = readIndexes(); err != nil {
		return nil, err
	}
	if rec.indexesCreated, err = readIndexes(); err != nil {
		return nil, err
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("graph: wal record has trailing bytes")
	}
	return rec, nil
}

// kvProps interns a record's properties into a property list, skipping
// nulls; a repeated key keeps its last non-null value.
func (g *Graph) kvProps(kvs []walKV) Props {
	var ps Props
	for _, kv := range kvs {
		if !value.IsNull(kv.val) {
			ps = ps.set(g.intern(kv.key), kv.val)
		}
	}
	return ps
}

// apply replays one record onto g, in the order the format defines:
// deletions first (relationships before their endpoints), then
// creations (nodes before relationships), label changes, property
// writes, and schema changes last so rebuilt indexes see final
// content. Every inconsistency — a deletion of a missing entity, a
// dangling endpoint — is a hard error: the record passed its CRC, so
// this is corruption, not a torn tail.
func (rec *walRecord) apply(g *Graph) error {
	for _, id := range rec.relsDeleted {
		if !g.HasRel(RelID(id)) {
			return fmt.Errorf("graph: wal deletes missing relationship %d", id)
		}
		g.DeleteRel(RelID(id))
	}
	for _, id := range rec.nodesDeleted {
		if !g.HasNode(NodeID(id)) {
			return fmt.Errorf("graph: wal deletes missing node %d", id)
		}
		if err := g.DeleteNode(NodeID(id)); err != nil {
			return fmt.Errorf("graph: wal replay: %w", err)
		}
	}
	for _, wn := range rec.nodesCreated {
		if g.HasNode(NodeID(wn.id)) {
			return fmt.Errorf("graph: wal creates duplicate node %d", wn.id)
		}
		g.restoreNode(&Node{ID: NodeID(wn.id), Labels: g.labelsOf(wn.labels), Props: g.kvProps(wn.props)})
	}
	for _, wr := range rec.relsCreated {
		if g.HasRel(RelID(wr.id)) {
			return fmt.Errorf("graph: wal creates duplicate relationship %d", wr.id)
		}
		if wr.typ == "" {
			return fmt.Errorf("graph: wal relationship %d has no type", wr.id)
		}
		if !g.HasNode(NodeID(wr.src)) || !g.HasNode(NodeID(wr.tgt)) {
			return fmt.Errorf("graph: wal relationship %d has dangling endpoints", wr.id)
		}
		g.restoreRel(&Rel{ID: RelID(wr.id), Type: g.intern(wr.typ), Src: NodeID(wr.src), Tgt: NodeID(wr.tgt), Props: g.kvProps(wr.props)})
	}
	for _, wl := range rec.labelsAdded {
		if err := g.AddLabel(NodeID(wl.id), wl.label); err != nil {
			return fmt.Errorf("graph: wal replay: %w", err)
		}
	}
	for _, wl := range rec.labelsRemoved {
		if err := g.RemoveLabel(NodeID(wl.id), wl.label); err != nil {
			return fmt.Errorf("graph: wal replay: %w", err)
		}
	}
	for _, p := range rec.props {
		v := p.val
		if !p.has {
			v = value.NullValue
		}
		var err error
		if p.rel {
			err = g.SetRelProp(RelID(p.id), p.key, v)
		} else {
			err = g.SetNodeProp(NodeID(p.id), p.key, v)
		}
		if err != nil {
			return fmt.Errorf("graph: wal replay: %w", err)
		}
	}
	for _, k := range rec.indexesDropped {
		g.DropIndex(k.Label, k.Prop)
	}
	for _, k := range rec.indexesCreated {
		g.CreateIndex(k.Label, k.Prop)
	}
	if NodeID(rec.nextNode) > g.nextNode {
		g.nextNode = NodeID(rec.nextNode)
	}
	if RelID(rec.nextRel) > g.nextRel {
		g.nextRel = RelID(rec.nextRel)
	}
	return nil
}
