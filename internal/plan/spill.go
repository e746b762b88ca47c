package plan

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/value"
)

// Spill tuning. minSpillRows keeps runs from degenerating to one row
// under absurdly small budgets (so peak memory is budget plus at most
// minSpillRows rows of slack); maxMergeWidth bounds simultaneously
// open run files — when exceeded, existing runs are compacted into one
// by an intermediate merge. spillParts is the fan-out of a hashing
// barrier's overflow: its pass runs over one partition at a time, so
// the state it holds is roughly 1/spillParts of the overflowed key
// space (single-level partitioning, documented limitation).
const (
	minSpillRows  = 16
	maxMergeWidth = 16
	spillParts    = 8
)

// spillRow is the unit of spilled data: a row's values plus whichever
// ordering metadata its barrier needs — a global intake sequence
// number (all barriers; ties and first-occurrence order), sort keys
// (external sort), and the group/distinct key string (hash
// partitioning).
type spillRow struct {
	seq  int64
	key  string
	keys []value.Value
	vals []value.Value
}

var spillLive atomic.Int64

// SpillFilesLive reports the number of spill temp files currently on
// disk across the process, for leak assertions in tests (barriers
// remove each file as soon as its run is consumed, and Close removes
// any remainder even on error or early-LIMIT abandonment).
func SpillFilesLive() int64 { return spillLive.Load() }

// spillDirCfg holds the configured spill directory ("" = os.TempDir()).
var spillDirCfg atomic.Value

// SetSpillDir directs subsequent spill temp files to dir for the whole
// process (the empty string restores the default, os.TempDir()).
func SetSpillDir(dir string) { spillDirCfg.Store(dir) }

// SpillDir reports the directory spill temp files are created in.
func SpillDir() string {
	if d, ok := spillDirCfg.Load().(string); ok && d != "" {
		return d
	}
	return os.TempDir()
}

// spillFilePrefix tags this process's spill files with its pid, so a
// sweep after a crash can tell dead owners' orphans from files of
// still-running engines.
func spillFilePrefix() string { return fmt.Sprintf("repro-spill-p%d-", os.Getpid()) }

// SweepSpillOrphans removes spill temp files in dir (the configured
// spill directory when dir is empty) whose owning process is no longer
// alive — the files a killed process had no chance to clean up. Files
// of live processes, of this process, and files whose owner cannot be
// determined are left alone. It returns the number of files removed.
// Engine construction calls this once per process, so restarting after
// a crash reclaims the disk the crash leaked.
func SweepSpillOrphans(dir string) (int, error) {
	if dir == "" {
		dir = SpillDir()
	}
	matches, err := filepath.Glob(filepath.Join(dir, "repro-spill-p*"))
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, path := range matches {
		rest := strings.TrimPrefix(filepath.Base(path), "repro-spill-p")
		dash := strings.IndexByte(rest, '-')
		if dash <= 0 {
			continue
		}
		pid, err := strconv.Atoi(rest[:dash])
		if err != nil || pid <= 0 || pid == os.Getpid() {
			continue
		}
		if pidAlive(pid) {
			continue
		}
		if err := os.Remove(path); err == nil {
			removed++
		}
	}
	return removed, nil
}

// pidAlive reports whether a process with the given pid exists (signal
// 0 probes existence without delivering anything; EPERM still means
// the process is there).
func pidAlive(pid int) bool {
	proc, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = proc.Signal(syscall.Signal(0))
	return err == nil || errors.Is(err, syscall.EPERM)
}

// ---------------------------------------------------------------------
// Row codec — values go through the shared binary codec in
// internal/graph (binval.go), which the write-ahead log uses too.
// Floats round-trip by bit pattern (NaN included), entities by id,
// lists/maps/paths recursively — every value kind is covered, so any
// row the executor produces can spill.
// ---------------------------------------------------------------------

func writeSpillRow(w *bufio.Writer, row spillRow) error {
	if err := graph.WriteVarint(w, row.seq); err != nil {
		return err
	}
	if err := graph.WriteBinaryString(w, row.key); err != nil {
		return err
	}
	if err := graph.WriteUvarint(w, uint64(len(row.keys))); err != nil {
		return err
	}
	for _, v := range row.keys {
		if err := graph.WriteBinaryValue(w, v); err != nil {
			return err
		}
	}
	if err := graph.WriteUvarint(w, uint64(len(row.vals))); err != nil {
		return err
	}
	for _, v := range row.vals {
		if err := graph.WriteBinaryValue(w, v); err != nil {
			return err
		}
	}
	return nil
}

func readSpillRow(r *bufio.Reader) (spillRow, error) {
	var row spillRow
	var err error
	if row.seq, err = binary.ReadVarint(r); err != nil {
		return row, err
	}
	if row.key, err = graph.ReadBinaryString(r); err != nil {
		return row, err
	}
	nk, err := binary.ReadUvarint(r)
	if err != nil {
		return row, err
	}
	if nk > 0 {
		row.keys = make([]value.Value, nk)
		for i := range row.keys {
			if row.keys[i], err = graph.ReadBinaryValue(r); err != nil {
				return row, err
			}
		}
	}
	nv, err := binary.ReadUvarint(r)
	if err != nil {
		return row, err
	}
	if nv > 0 {
		row.vals = make([]value.Value, nv)
		for i := range row.vals {
			if row.vals[i], err = graph.ReadBinaryValue(r); err != nil {
				return row, err
			}
		}
	}
	return row, nil
}

// ---------------------------------------------------------------------
// Spill files and run merging
// ---------------------------------------------------------------------

// spillFile is a temp file holding encoded spill rows: write-once via
// add, then read back via stream. discard (or stream-close) removes
// the file from disk.
type spillFile struct {
	f *os.File
	w *bufio.Writer
	n int
}

func newSpillFile() (*spillFile, error) {
	f, err := os.CreateTemp(SpillDir(), spillFilePrefix()+"*")
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	spillLive.Add(1)
	return &spillFile{f: f, w: bufio.NewWriterSize(f, 64<<10)}, nil
}

func (s *spillFile) add(r spillRow) error {
	s.n++
	return writeSpillRow(s.w, r)
}

// stream flushes and rewinds the file for reading. On error the file
// is discarded.
func (s *spillFile) stream() (*spillStream, error) {
	if err := s.w.Flush(); err != nil {
		s.discard()
		return nil, err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		s.discard()
		return nil, err
	}
	return &spillStream{sf: s, r: bufio.NewReaderSize(s.f, 64<<10), remaining: s.n}, nil
}

// discard closes and removes the file. Idempotent.
func (s *spillFile) discard() {
	if s == nil || s.f == nil {
		return
	}
	name := s.f.Name()
	s.f.Close()
	os.Remove(name)
	s.f = nil
	spillLive.Add(-1)
}

type spillStream struct {
	sf        *spillFile
	r         *bufio.Reader
	remaining int
}

func (st *spillStream) next() (spillRow, bool, error) {
	if st.remaining == 0 {
		return spillRow{}, false, nil
	}
	st.remaining--
	row, err := readSpillRow(st.r)
	if err != nil {
		return spillRow{}, false, err
	}
	return row, true, nil
}

func (st *spillStream) close() { st.sf.discard() }

// mergeSource is one pre-sorted input of a k-way merge.
type mergeSource interface {
	next() (spillRow, bool, error)
	close()
}

// memStream replays an in-memory (already sorted) run.
type memStream struct {
	rows []spillRow
	i    int
}

func (m *memStream) next() (spillRow, bool, error) {
	if m.i >= len(m.rows) {
		return spillRow{}, false, nil
	}
	r := m.rows[m.i]
	m.i++
	return r, true, nil
}

func (m *memStream) close() {}

// runMerger merges pre-sorted sources into one stream under less.
// Sources are closed (removing their files) the moment they exhaust.
// The source count is small — bounded by maxMergeWidth plus one — so a
// linear scan over the current heads beats heap bookkeeping.
type runMerger struct {
	srcs  []mergeSource
	heads []spillRow
	live  []bool
	less  func(a, b spillRow) bool
}

// newRunMerger primes every source; on error all sources are closed.
func newRunMerger(srcs []mergeSource, less func(a, b spillRow) bool) (*runMerger, error) {
	m := &runMerger{srcs: srcs, heads: make([]spillRow, len(srcs)), live: make([]bool, len(srcs)), less: less}
	for i, s := range srcs {
		r, ok, err := s.next()
		if err != nil {
			m.close()
			return nil, err
		}
		if ok {
			m.heads[i], m.live[i] = r, true
		} else {
			s.close()
			m.srcs[i] = nil
		}
	}
	return m, nil
}

func (m *runMerger) next() (spillRow, bool, error) {
	best := -1
	for i, ok := range m.live {
		if !ok {
			continue
		}
		if best < 0 || m.less(m.heads[i], m.heads[best]) {
			best = i
		}
	}
	if best < 0 {
		return spillRow{}, false, nil
	}
	out := m.heads[best]
	r, ok, err := m.srcs[best].next()
	if err != nil {
		return spillRow{}, false, err
	}
	if ok {
		m.heads[best] = r
	} else {
		m.live[best] = false
		m.srcs[best].close()
		m.srcs[best] = nil
	}
	return out, true, nil
}

func (m *runMerger) close() {
	for i, s := range m.srcs {
		if s != nil {
			s.close()
			m.srcs[i] = nil
		}
		m.live[i] = false
	}
}

// writeRun spills the given (already sorted) rows into a fresh file.
func writeRun(rows []spillRow) (*spillFile, error) {
	f, err := newSpillFile()
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := f.add(r); err != nil {
			f.discard()
			return nil, err
		}
	}
	return f, nil
}

// compactRuns merges sorted runs into one bigger run on disk of at most
// limit rows, bounding the number of files the final merge must hold
// open. Merging sorted runs yields a sorted run under the same
// comparator (the seq tie-break keeps it total), so compaction never
// perturbs the final order; a row after the limit-th has limit rows
// before it. When the run reaches limit rows, the keys of its last row
// are returned too.
func compactRuns(runs []*spillFile, less func(a, b spillRow) bool, limit int) (*spillFile, []value.Value, error) {
	srcs, err := streamRuns(runs)
	if err != nil {
		return nil, nil, err
	}
	m, err := newRunMerger(srcs, less)
	if err != nil {
		return nil, nil, err
	}
	out, err := newSpillFile()
	if err != nil {
		m.close()
		return nil, nil, err
	}
	var last []value.Value
	for out.n < limit {
		r, ok, err := m.next()
		if err != nil {
			m.close()
			out.discard()
			return nil, nil, err
		}
		if !ok {
			break
		}
		if err := out.add(r); err != nil {
			m.close()
			out.discard()
			return nil, nil, err
		}
		last = r.keys
	}
	m.close()
	if out.n < limit {
		last = nil
	}
	return out, last, nil
}

// streamRuns opens every run for reading. On error no run is left: the
// streams opened so far are closed and the other runs discarded.
func streamRuns(runs []*spillFile) ([]mergeSource, error) {
	srcs := make([]mergeSource, 0, len(runs)+1)
	for i, f := range runs {
		st, err := f.stream()
		if err != nil {
			for _, s := range srcs {
				s.close()
			}
			for _, f := range runs[i+1:] {
				f.discard()
			}
			return nil, err
		}
		srcs = append(srcs, st)
	}
	return srcs, nil
}

// ---------------------------------------------------------------------
// Overflow: a barrier's spilled state
// ---------------------------------------------------------------------

// overflow holds what a barrier spilled, from its first file to the
// merge that replays it, and close removes every file left at any
// stage. The Sort writes its sorted runs to runs itself. A hashing
// barrier (Aggregate, Distinct) that overflows opens spillParts
// partition files and routes each row of a key it did not admit to one
// of them by that key. settle then runs the barrier's pass over one
// partition at a time and writes the rows the pass outputs, each
// tagged with the sequence number of its key's first row, to a run.
// Either way merge replays the runs merged with the barrier's rows
// still in memory.
type overflow struct {
	opened bool // the partitions were opened: the barrier overflowed
	parts  []*spillFile
	runs   []*spillFile
	merged mergeSource
}

// open creates the partition files, on the first call only.
func (v *overflow) open() error {
	if v.opened {
		return nil
	}
	v.opened = true
	for range spillParts {
		f, err := newSpillFile()
		if err != nil {
			return err
		}
		v.parts = append(v.parts, f)
	}
	return nil
}

// route appends r to the partition of its key.
func (v *overflow) route(r spillRow) error {
	h := fnv.New32a()
	h.Write([]byte(r.key))
	return v.parts[h.Sum32()%spillParts].add(r)
}

// settle runs pass over each partition in turn, counting it as one of
// m's spill runs. pass reads the partition's rows in intake order and
// writes its output rows to run; what it charged to m is released
// before the next partition. Keys never span partitions, so each pass
// sees all of its keys' rows. The runs then merge back by sequence
// number with mem, the barrier's output for its admitted keys.
func (v *overflow) settle(m *memAccount, mem []spillRow, pass func(part *spillStream, run *spillFile) error) error {
	for _, p := range v.parts {
		part, err := p.stream()
		if err != nil {
			return err
		}
		m.spills.Add(1)
		run, err := newSpillFile()
		if err != nil {
			part.close()
			return err
		}
		v.runs = append(v.runs, run)
		held := m.held.Load()
		err = pass(part, run)
		part.close()
		m.release(m.held.Load() - held)
		if err != nil {
			return err
		}
	}
	v.parts = nil
	return v.merge(mem, func(a, b spillRow) bool { return a.seq < b.seq })
}

// merge sets merged to the runs merged under less with mem, rows in
// memory already in that order, as one more source; without runs,
// merged is mem alone.
func (v *overflow) merge(mem []spillRow, less func(a, b spillRow) bool) error {
	if len(v.runs) == 0 {
		v.merged = &memStream{rows: mem}
		return nil
	}
	srcs, err := streamRuns(v.runs)
	v.runs = nil
	if err != nil {
		return err
	}
	m, err := newRunMerger(append(srcs, &memStream{rows: mem}), less)
	if err != nil {
		return err
	}
	v.merged = m
	return nil
}

// close removes every spill file still held. Idempotent.
func (v *overflow) close() {
	if v.merged != nil {
		v.merged.close()
		v.merged = nil
	}
	for _, f := range slices.Concat(v.parts, v.runs) {
		f.discard()
	}
	v.parts, v.runs = nil, nil
}

// replay emits the next batch of at most max rows of src, a barrier's
// merged output; a closed barrier has none left.
func (o *base) replay(src mergeSource, max int) (*Batch, bool, error) {
	if src == nil {
		return nil, false, nil
	}
	max = clampMax(max)
	b := NewBatch(o.cols, demandCap(o.last, max))
	for b.n < max {
		r, ok, err := src.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		b.appendVals(r.vals)
	}
	return o.emit(b)
}

// ---------------------------------------------------------------------
// Byte accounting helpers
// ---------------------------------------------------------------------

func spillRowBytes(r spillRow) int64 {
	n := int64(64) + int64(len(r.key))
	for _, v := range r.keys {
		n += value.ApproxSize(v)
	}
	for _, v := range r.vals {
		n += value.ApproxSize(v)
	}
	return n
}

// rowBytes is the accounted size of a group's representative row: a
// header plus each value with its column name. The estimate is the one
// the barriers' spill points and PROFILE peaks were tuned and pinned
// with.
func rowBytes(cols []string, vals []value.Value) int64 {
	n := int64(48)
	for j, v := range vals {
		n += 16 + int64(len(cols[j])) + value.ApproxSize(v)
	}
	return n
}

// ---------------------------------------------------------------------
// External sort (Sort barrier)
// ---------------------------------------------------------------------

// compareKeys compares two rows' ORDER BY keys in the sort's order.
func compareKeys(sorts []*ast.SortItem, a, b []value.Value) int {
	for s, item := range sorts {
		c := value.CompareOrder(a[s], b[s])
		if item.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// sortRowCompare orders spill rows by the ORDER BY keys with the global
// intake sequence as final tie-break. Because every row has a unique
// seq the order is total, so an unstable sort of a run — and any merge
// of runs under the same comparator — reproduces exactly the order a
// stable sort over the whole input would have produced.
func sortRowCompare(sorts []*ast.SortItem) func(a, b spillRow) int {
	return func(a, b spillRow) int {
		if c := compareKeys(sorts, a.keys, b.keys); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	}
}

// bound is how many leading rows of the sorted order the Skip and Limit
// above can return: skip+limit, saturating at the largest int. A Sort
// without a LIMIT above it, or whose counts are invalid, reads the
// largest int too and keeps every row; the Skip or Limit then reports
// the count's error.
func (o *Sort) bound() int {
	if o.limit == nil {
		return math.MaxInt
	}
	l, err := o.limit.eval()
	if err != nil {
		return math.MaxInt
	}
	s := 0
	if o.skip != nil {
		if s, err = o.skip.eval(); err != nil {
			return math.MaxInt
		}
	}
	if s > math.MaxInt-l {
		return math.MaxInt
	}
	return s + l
}

// fill is the Sort's intake, one loop over the child's batches like
// Aggregate's and Distinct's. Each row's sort keys are evaluated into a
// reused slice over all its columns, hidden ones included, and only the
// Sort's own columns are kept; its sequence number is its intake
// position, so the comparator's seq tie-break reproduces a stable sort.
//
// The Sort drops a row whose keys do not sort before those of the kept
// bound-th row (see bound) before it copies anything: that row has
// bound rows ahead of it already. When the pending rows reach twice the
// bound they are sorted and cut to the bound, which sets that row.
//
// Over budget, the Sort first cuts its pending rows to the bound;
// if it is still over, the pending rows are sorted and spilled as one
// run, and the runs are compacted into one when they reach
// maxMergeWidth, or when the rows spilled since a compaction last cut
// at the bound reach the bound. A compacted run is cut to the bound
// too, and when it holds that many rows its last row's keys become the
// drop threshold if they sort before the kept bound-th row's.
// Compacting once per bound rows spilled sets that threshold as soon
// as the runs hold the bound, and writes at most bound rows per bound
// rows spilled: at most twice the spilled rows, besides the
// maxMergeWidth compactions. At the end the pending rows
// replay merged with the spilled runs, or alone. The runs are held in
// o.spill, whose close removes them on any error.
func (o *Sort) fill() error {
	compare := sortRowCompare(o.sorts)
	less := func(a, b spillRow) bool { return compare(a, b) < 0 }
	bound := o.bound()
	cutAt := bound
	if bound <= math.MaxInt/2 {
		cutAt = 2 * bound
	}
	ns := len(o.sorts)
	sc := newScratch(o.ev, o.child.Columns())
	keys := make([]value.Value, ns)
	var pend []spillRow
	var pendBytes, seq int64
	var lastKept []value.Value // keys of the kept bound-th row, once cut
	spilled := 0               // rows spilled since a compaction last cut at the bound
	cut := func() {
		slices.SortFunc(pend, compare)
		if o.budget.limited() {
			var nb int64
			for _, r := range pend[bound:] {
				nb += spillRowBytes(r)
			}
			pendBytes -= nb
			o.release(nb)
		}
		clear(pend[bound:])
		pend = pend[:bound]
		if bound > 0 {
			lastKept = pend[bound-1].keys
		}
	}
	for {
		b, ok, err := o.child.NextBatch(BatchTarget)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for i := 0; i < b.n; i++ {
			in := sc.load(b, i)
			for s, item := range o.sorts {
				v, err := o.ev.Eval(item.Expr, in)
				if err != nil {
					return err
				}
				keys[s] = v
			}
			seq++
			if bound == 0 || lastKept != nil && compareKeys(o.sorts, keys, lastKept) >= 0 {
				continue
			}
			row := make([]value.Value, ns+len(o.cols))
			copy(row, keys)
			for j := range o.cols {
				row[ns+j] = b.vals[j][i]
			}
			r := spillRow{seq: seq, keys: row[:ns:ns], vals: row[ns:]}
			pend = append(pend, r)
			if o.budget.limited() {
				nb := spillRowBytes(r)
				pendBytes += nb
				o.charge(nb)
			}
			if len(pend) >= cutAt {
				cut()
			}
			if !o.budget.over() || len(pend) < minSpillRows {
				continue
			}
			if len(pend) > bound {
				cut()
				if !o.budget.over() || len(pend) < minSpillRows {
					continue
				}
			}
			slices.SortFunc(pend, compare)
			f, err := writeRun(pend)
			if err != nil {
				return err
			}
			o.spill.runs = append(o.spill.runs, f)
			o.spills.Add(1)
			o.release(pendBytes)
			spilled += len(pend)
			clear(pend)
			pend, pendBytes = pend[:0], 0
			if len(o.spill.runs) >= maxMergeWidth || len(o.spill.runs) > 1 && spilled >= bound {
				merged, kept, err := compactRuns(o.spill.runs, less, bound)
				o.spill.runs = nil // compactRuns consumed them
				if err != nil {
					return err
				}
				o.spill.runs = []*spillFile{merged}
				if kept != nil {
					spilled = 0
				}
				if kept != nil && (lastKept == nil || compareKeys(o.sorts, kept, lastKept) < 0) {
					lastKept = kept
				}
			}
		}
	}
	slices.SortFunc(pend, compare)
	if len(pend) > bound {
		pend = pend[:bound]
	}
	return o.spill.merge(pend, less)
}

// ---------------------------------------------------------------------
// Spilling hash aggregation (Aggregate barrier)
// ---------------------------------------------------------------------

// fill drains the child into a resident hash of groups. When the
// budget overflows, no further groups are admitted: rows of admitted
// keys keep aggregating in place, and rows of new keys are routed to
// the overflow's partitions. Without overflow the finalized groups
// form o.out in first-appearance order. With it, the overflow's pass
// groups and finalizes one partition at a time into a run, and the
// runs merge with the finalized resident groups by each group's first
// sequence number: first-appearance order again.
func (o *Aggregate) fill() error {
	var keyItems []int
	var aggCalls []*ast.FuncCall
	for idx, it := range o.items {
		if !ast.ContainsAggregate(it.Expr) {
			keyItems = append(keyItems, idx)
		}
		ast.Walk(it.Expr, func(e ast.Expr) bool {
			if f, ok := e.(*ast.FuncCall); ok && ast.AggregateFuncs[f.Name] {
				aggCalls = append(aggCalls, f)
				return false // aggregates cannot nest
			}
			return true
		})
	}

	cols := o.child.Columns()
	type group struct {
		rep      []value.Value // the group's first row, over cols
		aggs     []expr.Aggregator
		firstSeq int64
	}
	newGroup := func(rep []value.Value, seq int64) (*group, error) {
		grp := &group{rep: rep, firstSeq: seq}
		for _, f := range aggCalls {
			agg, err := expr.NewAggregator(f.Name, f.Distinct, f.Star)
			if err != nil {
				return nil, err
			}
			grp.aggs = append(grp.aggs, agg)
		}
		return grp, nil
	}
	addRow := func(grp *group, row []value.Value) error {
		for ai, f := range aggCalls {
			var v value.Value = nullValue
			if !f.Star {
				if len(f.Args) != 1 {
					return fmt.Errorf("%s() expects 1 argument", f.Name)
				}
				var err error
				v, err = o.ev.Eval(f.Args[0], row)
				if err != nil {
					return err
				}
			}
			if o.budget.limited() {
				if nb := grp.aggs[ai].Retains(v); nb > 0 {
					o.charge(nb)
				}
			}
			if err := grp.aggs[ai].Add(v); err != nil {
				return err
			}
		}
		return nil
	}
	// finalize evaluates the items over a group's representative row and
	// its aggregates' results into outRow.
	sc := newScratch(o.ev, cols)
	aggResults := make(map[ast.Expr]value.Value, len(aggCalls))
	outRow := make([]value.Value, len(o.items))
	finalize := func(grp *group) error {
		for ai, f := range aggCalls {
			aggResults[f] = grp.aggs[ai].Result()
		}
		o.ev.AggResults = aggResults
		defer func() { o.ev.AggResults = nil }()
		row := sc.loadVals(grp.rep)
		for j, it := range o.items {
			v, err := o.ev.Eval(it.Expr, row)
			if err != nil {
				return err
			}
			if v == nil {
				v = nullValue
			}
			outRow[j] = v
		}
		return nil
	}

	groups := make(map[string]*group)
	var order []*group
	keyVals := make([]value.Value, len(keyItems))
	var keyBytes []byte
	n := 0
	seq := int64(0)
	for {
		b, ok, err := o.child.NextBatch(BatchTarget)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for i := 0; i < b.n; i++ {
			n++
			row := sc.load(b, i)
			for k, ki := range keyItems {
				v, err := o.ev.Eval(o.items[ki].Expr, row)
				if err != nil {
					return err
				}
				keyVals[k] = v
			}
			keyBytes = value.AppendKeyList(keyBytes[:0], keyVals)
			grp, resident := groups[string(keyBytes)]
			if !resident {
				key := string(keyBytes)
				if o.spill.opened {
					if err := o.spill.route(spillRow{seq: seq, key: key, vals: b.rowVals(i, len(cols))}); err != nil {
						return err
					}
					seq++
					continue
				}
				if grp, err = newGroup(b.rowVals(i, len(cols)), seq); err != nil {
					return err
				}
				groups[key] = grp
				order = append(order, grp)
				if o.budget.limited() {
					o.charge(int64(len(key)) + rowBytes(cols, grp.rep) + 96)
					if o.budget.over() {
						if err := o.spill.open(); err != nil {
							return err
						}
					}
				}
			}
			if err := addRow(grp, row); err != nil {
				return err
			}
			seq++
		}
	}

	// Zero input rows with no grouping keys: a single global group.
	if n == 0 && len(keyItems) == 0 {
		grp, err := newGroup(nil, 0)
		if err != nil {
			return err
		}
		order = append(order, grp)
	}

	out := NewBatch(o.cols, len(order))
	for _, grp := range order {
		if err := finalize(grp); err != nil {
			return err
		}
		out.appendVals(outRow)
	}
	if o.spill.opened {
		mem := make([]spillRow, out.n)
		for i, grp := range order {
			mem[i] = spillRow{seq: grp.firstSeq, vals: out.rowVals(i, len(o.cols))}
		}
		err := o.spill.settle(&o.memAccount, mem, func(part *spillStream, run *spillFile) error {
			groups := make(map[string]*group)
			var order []*group
			for {
				r, ok, err := part.next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				grp := groups[r.key]
				if grp == nil {
					if grp, err = newGroup(r.vals, r.seq); err != nil {
						return err
					}
					groups[r.key] = grp
					order = append(order, grp)
					if o.budget.limited() {
						o.charge(int64(len(r.key)) + rowBytes(cols, grp.rep) + 96)
					}
				}
				if err := addRow(grp, sc.loadVals(r.vals)); err != nil {
					return err
				}
			}
			for _, grp := range order {
				if err := finalize(grp); err != nil {
					return err
				}
				if err := run.add(spillRow{seq: grp.firstSeq, vals: outRow}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	o.out = out
	return nil
}

// ---------------------------------------------------------------------
// Spilling DISTINCT
// ---------------------------------------------------------------------

// NextBatch implements Operator. It streams first occurrences as they
// arrive. When the budget overflows, the seen-set stops growing: rows
// of a seen key are duplicates and are dropped, and rows of new keys
// are routed, with their intake sequence numbers, to the overflow's
// partitions. Once the child is drained, the overflow's pass (firsts)
// keeps the first row of each key, one partition at a time, and the
// kept rows merge back by sequence number. Every routed row came after
// every streamed one, so the output is in first-occurrence order: the
// unbudgeted run's.
func (o *Distinct) NextBatch(max int) (*Batch, bool, error) {
	for !o.drained {
		in, ok, err := o.child.NextBatch(max)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			o.drained = true
			break
		}
		sel := o.selbuf[:0]
		for i := 0; i < in.n; i++ {
			for j := range o.keybuf {
				o.keybuf[j] = in.vals[j][i]
			}
			o.keyBytes = value.AppendKeyList(o.keyBytes[:0], o.keybuf)
			seq := o.seq
			o.seq++
			if o.seen[string(o.keyBytes)] {
				continue
			}
			key := string(o.keyBytes)
			if o.spill.opened {
				if err := o.spill.route(spillRow{seq: seq, key: key, vals: in.rowVals(i, len(in.cols))}); err != nil {
					return nil, false, err
				}
				continue
			}
			o.seen[key] = true
			if o.budget.limited() {
				o.charge(int64(len(key)) + 48)
				if o.budget.over() {
					if err := o.spill.open(); err != nil {
						return nil, false, err
					}
				}
			}
			sel = append(sel, i)
		}
		o.selbuf = sel
		if len(sel) == 0 {
			continue
		}
		if len(sel) == in.n {
			return o.emit(in)
		}
		out := NewBatch(in.cols, len(sel))
		for j := range out.vals {
			for _, i := range sel {
				out.vals[j] = append(out.vals[j], in.vals[j][i])
			}
		}
		out.n = len(sel)
		return o.emit(out)
	}
	if !o.spill.opened {
		return nil, false, nil
	}
	if o.spill.merged == nil {
		if err := o.spill.settle(&o.memAccount, nil, o.firsts); err != nil {
			return nil, false, err
		}
	}
	return o.replay(o.spill.merged, max)
}

// firsts is Distinct's pass over one partition: it writes the first row
// of each key to run.
func (o *Distinct) firsts(part *spillStream, run *spillFile) error {
	seen := make(map[string]bool)
	for {
		r, ok, err := part.next()
		if err != nil || !ok {
			return err
		}
		if seen[r.key] {
			continue
		}
		seen[r.key] = true
		if o.budget.limited() {
			o.charge(int64(len(r.key)) + 48)
		}
		if err := run.add(spillRow{seq: r.seq, vals: r.vals}); err != nil {
			return err
		}
	}
}
