// Morsel-driven parallel execution for read pipelines.
//
// An Exchange operator partitions a pipeline source into morsels —
// contiguous row ranges of a driving table, or contiguous chunks of a
// MATCH clause's anchor candidate list (match.AnchorPlan) — and runs
// the pipeline segment above the source (Match/Filter/Project/Unwind
// stages) once per morsel on a bounded worker pool. Each worker owns
// its evaluator, matchers and scratch state; the graph snapshot and the
// driving table are shared read-only.
//
// Gathering is ORDERED: morsel outputs are reassembled in morsel-index
// order, so the Exchange emits exactly the row sequence the serial
// pipeline would — parallel plans are bit-identical to serial ones,
// not merely multiset-equal, which keeps ORDER BY/LIMIT, DISTINCT
// first-occurrence order and aggregate first-appearance grouping
// byte-for-byte stable at any parallelism. Order restoration costs no
// extra buffering discipline: each morsel's stream is a bounded
// channel, registered in claim order, and the gatherer drains streams
// in registration order while workers run ahead within the in-flight
// window (backpressure bounds memory).
//
// Errors surface with serial identity too: morsels are claimed in
// index order and the gatherer reads streams in that order, so the
// first error it sees is the error the serial run would have hit first
// (a failed morsel also stops workers claiming further morsels).
//
// A barrier above an Exchange may instead drain it in callback mode
// (drainParallel): batches are delivered on the worker goroutines,
// tagged with (worker, morsel), which is how Sort builds per-worker
// sorted spill runs in parallel and merges them with the ordinary
// k-way run merger (see Sort.fillParallel in spill.go).
package plan

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/table"
	"repro/internal/value"
)

const (
	// morselChanCap bounds the batches buffered per in-flight morsel
	// stream; together with the registration queue this caps gather-side
	// memory at roughly (3·workers)·morselChanCap·BatchTarget rows.
	morselChanCap = 4
	// scanMorselRows is the row-range granularity for table-scan
	// morsels.
	scanMorselRows = 4 * BatchTarget
	// Anchor-morsel granularity bounds: small enough to balance skewed
	// per-anchor match costs, large enough to amortize the per-morsel
	// operator-chain construction.
	minAnchorChunk = 16
	maxAnchorChunk = 4096
	// morselSeqBits is the in-morsel row width of the composite sequence
	// number a parallel Sort intake assigns: seq = morsel<<bits | row.
	// Lexicographic (morsel, row) order equals serial intake order, so
	// the existing seq tie-break reproduces sort.SliceStable exactly.
	morselSeqBits = 36
)

// workerCtx is one worker's private execution state: an evaluator that
// is not shared with any other goroutine, and per-stage matchers reused
// across the worker's morsels (so a Match stage's plan cache survives
// from morsel to morsel).
type workerCtx struct {
	ev       *expr.Evaluator
	mf       func(ev *expr.Evaluator) *match.Matcher
	matchers map[int]*match.Matcher
}

// matcherFor returns the worker's matcher for pipeline stage idx,
// creating it on first use. NewMatch re-points Stats and pushdown at
// each morsel's operator, which is safe: one worker runs one morsel at
// a time.
func (w *workerCtx) matcherFor(idx int) *match.Matcher {
	if m, ok := w.matchers[idx]; ok {
		return m
	}
	m := w.mf(w.ev)
	w.matchers[idx] = m
	return m
}

// stageFn rebuilds one pipeline stage over a morsel's source chain,
// using the worker's private evaluator and matchers. The builder
// records one per absorbed clause, mirroring the serial prototype
// chain operator for operator.
type stageFn func(child Operator, w *workerCtx) Operator

// morselSource partitions a pipeline source into independently
// enumerable morsels. Implementations are immutable after build and
// shared by all workers; operator() is called on the claiming worker.
type morselSource interface {
	morsels() int
	operator(i int, w *workerCtx) Operator
	label() string
}

// ---------------------------------------------------------------------
// Table-scan morsels
// ---------------------------------------------------------------------

// scanSource splits a driving table into contiguous row ranges. The
// table is shared read-only with the serial prototype scan.
type scanSource struct {
	t     *table.Table
	cols  []string
	chunk int
}

func newScanSource(t *table.Table) *scanSource {
	return &scanSource{t: t, cols: t.Columns(), chunk: scanMorselRows}
}

func (s *scanSource) morsels() int {
	return (s.t.Len() + s.chunk - 1) / s.chunk
}

func (s *scanSource) operator(i int, _ *workerCtx) Operator {
	lo := i * s.chunk
	hi := lo + s.chunk
	if hi > s.t.Len() {
		hi = s.t.Len()
	}
	return &scanRange{t: s.t, cols: s.cols, pos: lo, end: hi}
}

func (s *scanSource) label() string {
	return fmt.Sprintf("scan-morsels(%d rows × chunk %d)", s.t.Len(), s.chunk)
}

// scanRange reads rows [pos, end) of a shared table. Unlike TableScan
// it never clones the table: morsel scans are pure columnar window
// reads over storage no one mutates during the statement.
type scanRange struct {
	t    *table.Table
	cols []string
	pos  int
	end  int

	st      opState
	rows    int64
	batches int64
}

// Columns implements Operator.
func (o *scanRange) Columns() []string { return o.cols }

// Open implements Operator.
func (o *scanRange) Open() error { return o.st.open("ScanRange") }

// NextBatch implements Operator.
func (o *scanRange) NextBatch(max int) (*Batch, bool, error) {
	max = clampMax(max)
	if o.pos >= o.end {
		return nil, false, nil
	}
	end := o.pos + max
	if end > o.end {
		end = o.end
	}
	b := newBatch(o.cols, end-o.pos)
	o.t.ReadColumns(o.pos, end, b.vals)
	b.n = end - o.pos
	o.pos = end
	o.rows += int64(b.n)
	o.batches++
	return b, true, nil
}

// Close implements Operator.
func (o *scanRange) Close() { o.st.close() }

// Name implements Operator.
func (o *scanRange) Name() string {
	return fmt.Sprintf("ScanRange[%d:%d)", o.pos, o.end) + statsSuffix(o.rows, o.batches)
}

// Children implements Operator.
func (o *scanRange) Children() []Operator { return nil }

// RowsEmitted implements Operator.
func (o *scanRange) RowsEmitted() int64 { return o.rows }

// ---------------------------------------------------------------------
// Match anchor morsels
// ---------------------------------------------------------------------

// anchorSource splits a leading non-optional MATCH clause's anchor
// candidate list (planned once at build time over the pinned snapshot)
// into contiguous chunks. Enumerating a chunk yields exactly the
// corresponding subsequence of the serial enumeration — the isomorphism
// bookkeeping is fully backtracked between anchor candidates (see
// match.PlanAnchors).
type anchorSource struct {
	ap     *match.AnchorPlan
	cl     *ast.MatchClause
	pushed *match.Pushdown
	cols   []string
	chunk  int
}

func (s *anchorSource) morsels() int {
	n := len(s.ap.Anchors())
	return (n + s.chunk - 1) / s.chunk
}

func (s *anchorSource) operator(i int, w *workerCtx) Operator {
	anchors := s.ap.Anchors()
	lo := i * s.chunk
	hi := lo + s.chunk
	if hi > len(anchors) {
		hi = len(anchors)
	}
	m := w.matcherFor(-1) // the anchor-scan matcher slot, shared across morsels
	m.SetPushdown(s.pushed)
	return &anchorScan{src: s, anchors: anchors[lo:hi], m: m, ev: w.ev}
}

func (s *anchorSource) label() string {
	return fmt.Sprintf("anchor-morsels(%d anchors × chunk %d)", len(s.ap.Anchors()), s.chunk)
}

// anchorChunk sizes anchor morsels: aim for several morsels per worker
// (balancing skewed per-anchor costs) within the amortization bounds.
func anchorChunk(anchors, workers int) int {
	c := anchors / (workers * 8)
	if c < minAnchorChunk {
		c = minAnchorChunk
	}
	if c > maxAnchorChunk {
		c = maxAnchorChunk
	}
	return c
}

// anchorScan enumerates the matches of one anchor chunk, applying the
// clause's WHERE inside the enumeration exactly as the serial Match
// operator does.
type anchorScan struct {
	src     *anchorSource
	anchors []graph.NodeID
	m       *match.Matcher
	ev      *expr.Evaluator

	st      opState
	cur     *match.Cursor
	buf     []expr.Env
	done    bool
	rows    int64
	batches int64
}

// Columns implements Operator.
func (o *anchorScan) Columns() []string { return o.src.cols }

// Open implements Operator.
func (o *anchorScan) Open() error { return o.st.open("AnchorScan") }

// NextBatch implements Operator.
func (o *anchorScan) NextBatch(max int) (*Batch, bool, error) {
	max = clampMax(max)
	out := newBatch(o.src.cols, max)
	for out.n < max && !o.done {
		if len(o.buf) > 0 {
			take := max - out.n
			if take > len(o.buf) {
				take = len(o.buf)
			}
			for _, me := range o.buf[:take] {
				out.appendEnv(me)
			}
			o.buf = o.buf[take:]
			continue
		}
		if o.cur == nil {
			var filter func(expr.Env) (bool, error)
			if o.src.cl.Where != nil {
				filter = func(me expr.Env) (bool, error) {
					ok, err := o.ev.EvalBool(o.src.cl.Where, me)
					if err != nil {
						return false, err
					}
					return ok == value.True, nil
				}
			}
			o.cur = o.m.NewAnchorCursor(o.src.ap, o.anchors, expr.Env{}, max, filter)
		}
		envs, ok := o.cur.Next()
		if ok {
			o.buf = envs
			continue
		}
		err := o.cur.Stop()
		o.cur = nil
		o.done = true
		if err != nil {
			return nil, false, err
		}
	}
	if out.n == 0 {
		return nil, false, nil
	}
	o.rows += int64(out.n)
	o.batches++
	return out, true, nil
}

// Close implements Operator.
func (o *anchorScan) Close() {
	if !o.st.close() {
		return
	}
	if o.cur != nil {
		o.cur.Stop()
		o.cur = nil
	}
}

// Name implements Operator.
func (o *anchorScan) Name() string {
	return fmt.Sprintf("AnchorScan(%d anchors)", len(o.anchors)) + statsSuffix(o.rows, o.batches)
}

// Children implements Operator.
func (o *anchorScan) Children() []Operator { return nil }

// RowsEmitted implements Operator.
func (o *anchorScan) RowsEmitted() int64 { return o.rows }

// ---------------------------------------------------------------------
// Exchange
// ---------------------------------------------------------------------

// morselMsg is one delivery on a morsel stream: a batch, or a terminal
// error. The stream channel is closed when the morsel is exhausted.
type morselMsg struct {
	b   *Batch
	err error
}

type morselStream struct {
	idx int
	ch  chan morselMsg
}

// Exchange fans a partitioned source out over a worker pool and
// gathers the results back in morsel order. The serial prototype chain
// (the operators the builder would have produced without parallelism)
// is kept as the explain child: it is never opened, it only renders
// the plan shape below the exchange boundary.
type Exchange struct {
	src     morselSource
	stages  []stageFn
	proto   Operator
	cols    []string
	workers int
	newCtx  func() *workerCtx

	st      opState
	started bool
	mode    string // "", "gather" or "drain"
	mu      sync.Mutex
	next    int
	queue   chan *morselStream
	done    chan struct{}
	wg      sync.WaitGroup
	failed  atomic.Bool

	cur     *morselStream
	pending *Batch
	pendOff int

	rows     int64
	batches  int64
	morselsN atomic.Int64
	launched int
}

// NewExchange builds an Exchange over a partitioned source. proto is
// the serial prototype chain (source plus absorbed stages) used for
// column resolution and EXPLAIN rendering only.
func NewExchange(src morselSource, stages []stageFn, proto Operator, workers int, newCtx func() *workerCtx) *Exchange {
	return &Exchange{
		src:     src,
		stages:  stages,
		proto:   proto,
		cols:    proto.Columns(),
		workers: workers,
		newCtx:  newCtx,
	}
}

// Columns implements Operator.
func (e *Exchange) Columns() []string { return e.cols }

// Open implements Operator. Workers launch lazily on first pull (or
// drain), so building and EXPLAINing a plan costs nothing.
func (e *Exchange) Open() error { return e.st.open("Exchange") }

// poolSize caps the worker count by the morsel count — extra workers
// would only idle.
func (e *Exchange) poolSize() int {
	w := e.workers
	if n := e.src.morsels(); w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// start launches the gather-mode pool: workers claim morsels in index
// order, register each morsel's stream on the queue under the claim
// mutex (so queue order is morsel order), run the rebuilt chain and
// push its batches through the stream.
func (e *Exchange) start() {
	e.started = true
	e.mode = "gather"
	e.done = make(chan struct{})
	w := e.poolSize()
	e.launched = w
	// Queue capacity bounds how far ahead of the gatherer claims may
	// run; each in-flight stream additionally buffers morselChanCap
	// batches.
	e.queue = make(chan *morselStream, 2*w)
	for i := 0; i < w; i++ {
		e.wg.Add(1)
		go e.gatherWorker()
	}
	go func() {
		e.wg.Wait()
		close(e.queue)
	}()
}

func (e *Exchange) gatherWorker() {
	defer e.wg.Done()
	w := e.newCtx()
	total := e.src.morsels()
	for {
		if e.failed.Load() {
			return
		}
		e.mu.Lock()
		if e.next >= total {
			e.mu.Unlock()
			return
		}
		idx := e.next
		e.next++
		ms := &morselStream{idx: idx, ch: make(chan morselMsg, morselChanCap)}
		select {
		case e.queue <- ms:
		case <-e.done:
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
		e.runMorsel(idx, ms, w)
	}
}

// runMorsel builds and drains one morsel's operator chain, delivering
// its batches (and at most one terminal error) on ms. The stream is
// always closed, and the chain always Closed, before returning.
func (e *Exchange) runMorsel(idx int, ms *morselStream, w *workerCtx) {
	defer close(ms.ch)
	e.morselsN.Add(1)
	op := e.src.operator(idx, w)
	for _, st := range e.stages {
		op = st(op, w)
	}
	defer op.Close()
	fail := func(err error) {
		e.failed.Store(true)
		select {
		case ms.ch <- morselMsg{err: err}:
		case <-e.done:
		}
	}
	if err := op.Open(); err != nil {
		fail(err)
		return
	}
	for {
		b, ok, err := op.NextBatch(BatchTarget)
		if err != nil {
			fail(err)
			return
		}
		if !ok {
			return
		}
		select {
		case ms.ch <- morselMsg{b: b}:
		case <-e.done:
			return
		}
	}
}

// NextBatch implements Operator: the ordered gather. Batches are
// served morsel by morsel in index order; a batch larger than max is
// handed out in slices.
func (e *Exchange) NextBatch(max int) (*Batch, bool, error) {
	max = clampMax(max)
	if !e.started {
		e.start()
	}
	if e.mode != "gather" {
		return nil, false, internalErrorf("Exchange: NextBatch after drainParallel")
	}
	for {
		if e.pending != nil {
			b := e.pending
			if e.pendOff == 0 && b.n <= max {
				e.pending = nil
				e.rows += int64(b.n)
				e.batches++
				return b, true, nil
			}
			end := e.pendOff + max
			if end > b.n {
				end = b.n
			}
			out := b.slice(e.pendOff, end)
			e.pendOff = end
			if e.pendOff >= b.n {
				e.pending, e.pendOff = nil, 0
			}
			e.rows += int64(out.n)
			e.batches++
			return out, true, nil
		}
		if e.cur == nil {
			ms, ok := <-e.queue
			if !ok {
				return nil, false, nil
			}
			e.cur = ms
		}
		msg, ok := <-e.cur.ch
		if !ok {
			e.cur = nil
			continue
		}
		if msg.err != nil {
			return nil, false, msg.err
		}
		e.pending, e.pendOff = msg.b, 0
	}
}

// drainParallel runs the exchange in callback mode: every morsel's
// batches are delivered to fn ON THE WORKER GOROUTINE, tagged with the
// worker slot (0..workers-1) and the morsel index. fn must be safe for
// concurrent calls from distinct worker slots; calls within one slot
// are sequential, and one morsel's batches arrive in order on one
// slot. Used by parallel-aware barriers (Sort) that reduce per worker
// and merge. Returns the lowest-morsel error, matching the error the
// serial run would surface first. Must be the first (and only) pull
// mode used on this exchange.
func (e *Exchange) drainParallel(fn func(worker, morsel int, b *Batch) error) error {
	if e.started {
		return internalErrorf("Exchange: drainParallel after NextBatch")
	}
	e.started = true
	e.mode = "drain"
	e.done = make(chan struct{})
	total := e.src.morsels()
	w := e.poolSize()
	e.launched = w
	var (
		errMu       sync.Mutex
		firstErr    error
		firstMorsel int
	)
	record := func(idx int, err error) {
		errMu.Lock()
		if firstErr == nil || idx < firstMorsel {
			firstErr, firstMorsel = err, idx
		}
		errMu.Unlock()
		e.failed.Store(true)
	}
	for i := 0; i < w; i++ {
		wid := i
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			wctx := e.newCtx()
			for {
				if e.failed.Load() {
					return
				}
				e.mu.Lock()
				if e.next >= total {
					e.mu.Unlock()
					return
				}
				idx := e.next
				e.next++
				e.mu.Unlock()
				e.morselsN.Add(1)
				op := e.src.operator(idx, wctx)
				for _, st := range e.stages {
					op = st(op, wctx)
				}
				if err := op.Open(); err != nil {
					record(idx, err)
					op.Close()
					return
				}
				for {
					b, ok, err := op.NextBatch(BatchTarget)
					if err != nil {
						record(idx, err)
						break
					}
					if !ok {
						break
					}
					e.mu.Lock()
					e.rows += int64(b.n)
					e.batches++
					e.mu.Unlock()
					if err := fn(wid, idx, b); err != nil {
						record(idx, err)
						break
					}
				}
				op.Close()
			}
		}()
	}
	e.wg.Wait()
	return firstErr
}

// Close implements Operator: cancels in-flight morsels (workers see
// the done channel on every blocking send and claim), waits for the
// pool to drain — so every morsel chain, match cursor and coroutine is
// closed before Close returns — and closes the prototype chain.
func (e *Exchange) Close() {
	if !e.st.close() {
		return
	}
	if e.started {
		close(e.done)
		e.wg.Wait()
	}
	e.proto.Close()
}

// Name implements Operator. The static part states the exchange degree
// and the morsel partitioning; after execution the counter suffix adds
// the workers actually launched and the morsels claimed.
func (e *Exchange) Name() string {
	s := fmt.Sprintf("Exchange(workers=%d, %s)", e.workers, e.src.label())
	if m := e.morselsN.Load(); m > 0 || e.rows > 0 || e.batches > 0 {
		s += fmt.Sprintf(" {rows=%d batches=%d workers=%d morsels=%d}", e.rows, e.batches, e.launched, m)
	}
	return s
}

// Children implements Operator: the serial prototype chain, rendered
// by EXPLAIN as the plan below the exchange boundary.
func (e *Exchange) Children() []Operator { return []Operator{e.proto} }

// RowsEmitted implements Operator.
func (e *Exchange) RowsEmitted() int64 { return e.rows }

// Workers reports the configured exchange degree (for tests).
func (e *Exchange) Workers() int { return e.workers }

// Morsels reports how many morsels have been claimed so far.
func (e *Exchange) Morsels() int64 { return e.morselsN.Load() }
