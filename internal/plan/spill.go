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
	"sort"
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
// by an intermediate merge. spillParts is the hash-partition fan-out
// of the spilling Aggregate/Distinct: each deferred partition is
// processed alone, so their resident state is roughly 1/spillParts of
// the overflowed key space (single-level partitioning, documented
// limitation).
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

// compactRuns merges sorted runs into one bigger run on disk, bounding
// the number of files the final merge must hold open. Merging sorted
// runs yields a sorted run under the same comparator (the seq
// tie-break keeps it total), so compaction never perturbs the final
// order.
func compactRuns(runs []*spillFile, less func(a, b spillRow) bool) (*spillFile, error) {
	srcs := make([]mergeSource, 0, len(runs))
	for _, f := range runs {
		st, err := f.stream()
		if err != nil {
			for _, s := range srcs {
				s.close()
			}
			return nil, err
		}
		srcs = append(srcs, st)
	}
	m, err := newRunMerger(srcs, less)
	if err != nil {
		return nil, err
	}
	out, err := newSpillFile()
	if err != nil {
		m.close()
		return nil, err
	}
	for {
		r, ok, err := m.next()
		if err != nil {
			m.close()
			out.discard()
			return nil, err
		}
		if !ok {
			break
		}
		if err := out.add(r); err != nil {
			m.close()
			out.discard()
			return nil, err
		}
	}
	m.close()
	return out, nil
}

func openSpillParts() ([]*spillFile, error) {
	parts := make([]*spillFile, spillParts)
	for i := range parts {
		f, err := newSpillFile()
		if err != nil {
			for _, p := range parts[:i] {
				p.discard()
			}
			return nil, err
		}
		parts[i] = f
	}
	return parts, nil
}

func spillPart(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % spillParts)
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
// maxMergeWidth. At the end the pending rows replay alone, or merged
// with the spilled runs. Runs live in o.runs until the merge takes
// them, so the defer discards them on any error.
func (o *Sort) fill() (err error) {
	defer func() {
		if err != nil {
			for _, f := range o.runs {
				f.discard()
			}
			o.runs = nil
		}
	}()
	compare := sortRowCompare(o.sorts)
	less := func(a, b spillRow) bool { return compare(a, b) < 0 }
	bound := o.bound()
	cutAt := bound
	if bound <= math.MaxInt/2 {
		cutAt = 2 * bound
	}
	ns := len(o.sorts)
	scratch := make(expr.Env, len(o.child.Columns())+4)
	keys := make([]value.Value, ns)
	var pend []spillRow
	var pendBytes, seq int64
	var lastKept []value.Value // keys of the kept bound-th row, once cut
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
			b.LoadEnv(scratch, i)
			for s, item := range o.sorts {
				v, err := o.ev.Eval(item.Expr, scratch)
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
			o.runs = append(o.runs, f)
			o.spills.Add(1)
			o.release(pendBytes)
			clear(pend)
			pend, pendBytes = pend[:0], 0
			if len(o.runs) >= maxMergeWidth {
				merged, err := compactRuns(o.runs, less)
				o.runs = nil // compactRuns closed them
				if err != nil {
					return err
				}
				o.runs = []*spillFile{merged}
			}
		}
	}
	slices.SortFunc(pend, compare)
	if len(pend) > bound {
		pend = pend[:bound]
	}
	if len(o.runs) == 0 {
		o.mem = pend
		return nil
	}
	srcs := make([]mergeSource, 0, len(o.runs)+1)
	for i, f := range o.runs {
		st, err := f.stream()
		if err != nil {
			for _, s := range srcs {
				s.close()
			}
			o.runs = o.runs[i+1:] // f discarded itself; defer discards the rest
			return err
		}
		srcs = append(srcs, st)
	}
	o.runs = nil // ownership moved to the merge streams
	o.merged, err = newRunMerger(append(srcs, &memStream{rows: pend}), less)
	return err
}

// next1 replays one row of the sorted output.
func (o *Sort) next1() (spillRow, bool, error) {
	if o.merged != nil {
		return o.merged.next()
	}
	if o.memIdx >= len(o.mem) {
		return spillRow{}, false, nil
	}
	r := o.mem[o.memIdx]
	o.memIdx++
	return r, true, nil
}

// ---------------------------------------------------------------------
// Spilling hash aggregation (Aggregate barrier)
// ---------------------------------------------------------------------

// fill drains the child into a resident hash of groups. When the
// budget overflows, no further resident groups are admitted: rows of
// already-resident keys keep aggregating in place, rows of new keys
// spill to hash partitions by group key. Each partition is then
// processed alone (its groups are disjoint from the residents' and
// from other partitions'), so deferred state is roughly 1/spillParts
// of the overflowed key space at a time.
//
// Output order is first-appearance of the group key: residents were
// all admitted before the first spilled row (admission stops at
// overflow), so every deferred group's first occurrence is later than
// every resident's — emitting residents in admission order, then
// deferred groups sorted by their first-occurrence sequence, is
// exactly the order the in-memory operator produces.
func (o *Aggregate) fill() (err error) {
	defer func() {
		if err != nil {
			for _, p := range o.parts {
				p.discard()
			}
			o.parts = nil
		}
	}()
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
	addRow := func(grp *group, env expr.Env) error {
		for ai, f := range aggCalls {
			var v value.Value = nullValue
			if !f.Star {
				if len(f.Args) != 1 {
					return fmt.Errorf("%s() expects 1 argument", f.Name)
				}
				var err error
				v, err = o.ev.Eval(f.Args[0], env)
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
	// its aggregates' results, appending the output row to out.
	repEnv := make(expr.Env, len(cols))
	aggResults := make(map[ast.Expr]value.Value, len(aggCalls))
	finalize := func(grp *group, out *Batch) error {
		for ai, f := range aggCalls {
			aggResults[f] = grp.aggs[ai].Result()
		}
		o.ev.AggResults = aggResults
		defer func() { o.ev.AggResults = nil }()
		for j, v := range grp.rep {
			repEnv[cols[j]] = v
		}
		for j, it := range o.items {
			v, err := o.ev.Eval(it.Expr, repEnv)
			if err != nil {
				return err
			}
			if v == nil {
				v = nullValue
			}
			out.vals[j] = append(out.vals[j], v)
		}
		out.n++
		return nil
	}

	groups := make(map[string]*group)
	var order []string
	scratch := make(expr.Env, len(cols))
	keyVals := make([]value.Value, len(keyItems))
	var keyBytes []byte
	n := 0
	seq := int64(0)
	for {
		b, ok, err2 := o.child.NextBatch(BatchTarget)
		if err2 != nil {
			return err2
		}
		if !ok {
			break
		}
		for i := 0; i < b.n; i++ {
			n++
			b.LoadEnv(scratch, i)
			for k, ki := range keyItems {
				v, err2 := o.ev.Eval(o.items[ki].Expr, scratch)
				if err2 != nil {
					return err2
				}
				keyVals[k] = v
			}
			keyBytes = value.AppendKeyList(keyBytes[:0], keyVals)
			grp, resident := groups[string(keyBytes)]
			if !resident {
				key := string(keyBytes)
				if o.spilling {
					if err2 := o.parts[spillPart(key)].add(spillRow{seq: seq, key: key, vals: b.rowVals(i, len(cols))}); err2 != nil {
						return err2
					}
					seq++
					continue
				}
				grp, err = newGroup(b.rowVals(i, len(cols)), seq)
				if err != nil {
					return err
				}
				groups[key] = grp
				order = append(order, key)
				if o.budget.limited() {
					o.charge(int64(len(key)) + rowBytes(cols, grp.rep) + 96)
					if o.budget.over() && !o.spilling {
						if o.parts, err = openSpillParts(); err != nil {
							return err
						}
						o.spilling = true
					}
				}
			}
			if err = addRow(grp, scratch); err != nil {
				return err
			}
			seq++
		}
	}

	// Zero input rows with no grouping keys: a single global group.
	if n == 0 && len(keyItems) == 0 {
		grp, err2 := newGroup(nil, 0)
		if err2 != nil {
			return err2
		}
		groups["_"] = grp
		order = append(order, "_")
	}

	out := NewBatch(o.cols, len(order))
	for _, key := range order {
		if err := finalize(groups[key], out); err != nil {
			return err
		}
	}
	if !o.spilling {
		o.out = out
		return nil
	}

	// Deferred phase: process each partition alone. Group keys hash to
	// exactly one partition, so a partition's groups are complete and
	// disjoint from everything else. Finalized output rows accumulate
	// in a batch of their own like any result set — the budget bounds
	// barrier state, not the statement's output — and join the
	// residents' in first-occurrence order at the end.
	deferred := NewBatch(o.cols, 0)
	var firstSeqs []int64
	parts := o.parts
	o.parts = nil
	defer func() {
		if err != nil {
			for _, p := range parts {
				p.discard()
			}
		}
	}()
	for pi, p := range parts {
		st, err2 := p.stream()
		if err2 != nil {
			parts[pi] = nil
			return err2
		}
		parts[pi] = nil
		o.spills.Add(1)
		pgroups := make(map[string]*group)
		var porder []string
		partStart := o.held.Load()
		for {
			r, ok, err2 := st.next()
			if err2 != nil {
				st.close()
				return err2
			}
			if !ok {
				break
			}
			for j, c := range cols {
				scratch[c] = r.vals[j]
			}
			grp, ok2 := pgroups[r.key]
			if !ok2 {
				grp, err = newGroup(r.vals, r.seq)
				if err != nil {
					st.close()
					return err
				}
				pgroups[r.key] = grp
				porder = append(porder, r.key)
				if o.budget.limited() {
					o.charge(int64(len(r.key)) + rowBytes(cols, grp.rep) + 96)
				}
			}
			if err = addRow(grp, scratch); err != nil {
				st.close()
				return err
			}
		}
		st.close()
		for _, key := range porder {
			if err := finalize(pgroups[key], deferred); err != nil {
				return err
			}
			firstSeqs = append(firstSeqs, pgroups[key].firstSeq)
		}
		// Release this partition's accounted state before the next.
		o.release(o.held.Load() - partStart)
	}
	perm := make([]int, deferred.n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return firstSeqs[perm[a]] < firstSeqs[perm[b]] })
	for _, i := range perm {
		out.appendRowFrom(deferred, i)
	}
	o.out = out
	return nil
}

// ---------------------------------------------------------------------
// Spilling DISTINCT
// ---------------------------------------------------------------------

// distinctNextBatch implements DISTINCT. Under budget (and always
// without one) it streams first occurrences as they arrive. On overflow the
// seen-set stops growing: rows whose key is resident are duplicates
// and are dropped; rows with new keys spill (with their intake
// sequence number) to hash partitions. After the child is exhausted,
// each partition is processed alone — first occurrence per key within
// a partition is decidable in file order, which is seq order — and the
// survivors, re-spilled per partition, are merged back by seq.
//
// Every spilled row's seq is greater than every streamed row's (the
// seen-set stops admitting at overflow), so streamed-then-merged
// output is globally in first-occurrence order: identical to the
// unbudgeted run's.
func (o *Distinct) distinctNextBatch(max int) (*Batch, bool, error) {
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
			if o.spilling {
				if err := o.parts[spillPart(key)].add(spillRow{seq: seq, key: key, vals: in.rowVals(i, len(in.cols))}); err != nil {
					return nil, false, err
				}
				continue
			}
			o.seen[key] = true
			if o.budget.limited() {
				o.charge(int64(len(key)) + 48)
				if o.budget.over() && !o.spilling {
					if o.parts, err = openSpillParts(); err != nil {
						return nil, false, err
					}
					o.spilling = true
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
	if !o.spilling {
		return nil, false, nil
	}
	if o.merged == nil {
		if err := o.buildDeferred(); err != nil {
			return nil, false, err
		}
	}
	max = clampMax(max)
	b := NewBatch(o.cols, demandCap(o.last, max))
	for b.n < max {
		r, ok, err := o.merged.next()
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

// buildDeferred runs the per-partition survivor pass and sets up the
// seq-order merge of the survivor files. Only one partition's seen-set
// is resident at a time.
func (o *Distinct) buildDeferred() (err error) {
	var srcs []mergeSource
	defer func() {
		if err != nil {
			for _, s := range srcs {
				s.close()
			}
		}
	}()
	parts := o.parts
	o.parts = nil
	defer func() {
		if err != nil {
			for _, p := range parts {
				p.discard()
			}
		}
	}()
	for pi, p := range parts {
		st, err2 := p.stream()
		if err2 != nil {
			parts[pi] = nil
			return err2
		}
		parts[pi] = nil
		o.spills.Add(1)
		surv, err2 := newSpillFile()
		if err2 != nil {
			st.close()
			return err2
		}
		pseen := make(map[string]bool)
		pheld := int64(0)
		for {
			r, ok, err2 := st.next()
			if err2 != nil {
				st.close()
				surv.discard()
				return err2
			}
			if !ok {
				break
			}
			if pseen[r.key] {
				continue
			}
			pseen[r.key] = true
			if o.budget.limited() {
				nb := int64(len(r.key)) + 48
				pheld += nb
				o.charge(nb)
			}
			if err2 := surv.add(spillRow{seq: r.seq, vals: r.vals}); err2 != nil {
				st.close()
				surv.discard()
				return err2
			}
		}
		st.close()
		// Release this partition's seen-set before the next.
		o.release(pheld)
		ss, err2 := surv.stream()
		if err2 != nil {
			return err2
		}
		srcs = append(srcs, ss)
	}
	o.merged, err = newRunMerger(srcs, func(a, b spillRow) bool { return a.seq < b.seq })
	if err != nil {
		srcs = nil // newRunMerger closed them
	}
	return err
}
