// Morsel-driven parallel execution for read pipelines.
//
// An Exchange operator partitions a pipeline source into morsels and
// runs the pipeline segment above the source (Match/Filter/Project/
// Unwind stages) once per morsel on a bounded worker pool. A morsel is
// an ordinary operator chain: a table-scan morsel is a TableScan over a
// contiguous row range of the driving table, and an anchor morsel is a
// Match over the unit record whose iterator enumerates one contiguous
// chunk of the MATCH clause's anchor candidate list
// (match.AnchorPlan.Chunk). Each worker owns its evaluator and each
// morsel its matchers and scratch state; the graph snapshot, the
// driving table and the statement's plan slots are shared.
//
// The Exchange has one pull mode, the ordered gather (NextBatch). Its
// one worker loop claims morsels in index order, registers each
// morsel's bounded stream in claim order, builds the morsel's chain,
// pushes its batches through the stream, closes it and adds its
// counters to the prototype chain's. The gather drains the streams in
// morsel order while workers run ahead within the in-flight window
// (backpressure bounds memory). The Exchange therefore emits exactly the
// row sequence the serial pipeline would — bit-identical, not merely
// multiset-equal — so every barrier above it (Sort, Aggregate,
// Distinct) takes in the serial table with its serial intake, and
// ORDER BY/LIMIT, DISTINCT first-occurrence order and aggregate
// first-appearance grouping are stable at any parallelism.
//
// Errors surface with serial identity too: a failed morsel stops
// workers claiming further morsels, every morsel claimed before it runs
// to its end, and the gather reports the error of the lowest failed
// morsel — the error the serial run would have hit first.
package plan

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/match"
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
)

// workerCtx is one worker's private execution state: an evaluator that
// is not shared with any other goroutine, and the matcher factory. A
// Match stage builds a fresh matcher per morsel; the plan it reads is
// the pattern's plan slot, which every worker shares.
type workerCtx struct {
	ev *expr.Evaluator
	mf func(ev *expr.Evaluator, parts []*ast.PatternPart) *match.Matcher
}

// stageFn rebuilds one pipeline stage over a morsel's source chain,
// using the worker's private evaluator and matcher factory. The builder
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

// scanSource splits a driving table into contiguous row ranges, each a
// TableScan over the table's columns, which every morsel shares
// read-only with the serial prototype scan.
type scanSource struct {
	all   *Batch
	chunk int
}

func (s *scanSource) morsels() int {
	return (s.all.n + s.chunk - 1) / s.chunk
}

func (s *scanSource) operator(i int, _ *workerCtx) Operator {
	lo := i * s.chunk
	return &TableScan{base: base{cols: s.all.cols}, all: s.all, pos: lo, end: min(lo+s.chunk, s.all.n)}
}

func (s *scanSource) label() string {
	return fmt.Sprintf("scan-morsels(%d rows × chunk %d)", s.all.n, s.chunk)
}

// ---------------------------------------------------------------------
// Match anchor morsels
// ---------------------------------------------------------------------

// anchorSource splits a leading non-optional MATCH clause's anchor
// candidate list (planned once at build time over the pinned snapshot)
// into contiguous chunks. Each morsel is an ordinary Match over the unit
// record whose iterator enumerates only its chunk's anchors; that yields
// exactly the corresponding subsequence of the serial enumeration — the
// isomorphism bookkeeping is fully backtracked between anchor candidates
// (see match.PlanAnchors).
type anchorSource struct {
	ap      *match.AnchorPlan
	cl      *ast.MatchClause
	newVars []string
	chunk   int
}

func (s *anchorSource) morsels() int {
	n := len(s.ap.Anchors())
	return (n + s.chunk - 1) / s.chunk
}

func (s *anchorSource) operator(i int, w *workerCtx) Operator {
	anchors := s.ap.Anchors()
	lo := i * s.chunk
	m := NewMatch(NewUnit(), s.cl, w.mf(w.ev, s.cl.Pattern), w.ev, s.newVars)
	m.ap = s.ap.Chunk(lo, min(lo+s.chunk, len(anchors)))
	return m
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

// ---------------------------------------------------------------------
// Exchange
// ---------------------------------------------------------------------

// morselStream carries one morsel's batches from its worker to the
// ordered gather. The worker sets err, if the morsel failed, before it
// closes ch, so the gatherer reads err only after draining ch.
type morselStream struct {
	ch  chan *Batch
	err error
}

// errExchangeClosed stops a worker whose gatherer has gone away.
var errExchangeClosed = errors.New("exchange closed")

// Exchange fans a partitioned source out over a worker pool and
// gathers the results back in morsel order. Its child is the serial
// prototype chain (the operators the builder would have produced
// without parallelism): it is never pulled, it renders the plan shape
// below the exchange boundary and, under PROFILE, the counters of the
// morsel chains summed operator by operator.
type Exchange struct {
	base
	src     morselSource
	stages  []stageFn
	workers int
	newCtx  func() *workerCtx

	started bool
	mu      sync.Mutex
	next    int
	// repMu guards the prototype chain's counters, which workers add
	// to. It is not mu, because a claim may block holding mu.
	repMu  sync.Mutex
	queue  chan *morselStream
	done   chan struct{}
	wg     sync.WaitGroup
	failed atomic.Bool

	cur     *morselStream
	pending *Batch
	pendOff int

	morselsN atomic.Int64
	launched int
}

// NewExchange builds an Exchange over a partitioned source. proto is
// the serial prototype chain (source plus absorbed stages), used for
// column resolution and for EXPLAIN and PROFILE rendering only.
func NewExchange(src morselSource, stages []stageFn, proto Operator, workers int, newCtx func() *workerCtx) *Exchange {
	return &Exchange{
		base:    base{child: proto, cols: proto.Columns()},
		src:     src,
		stages:  stages,
		workers: workers,
		newCtx:  newCtx,
	}
}

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

// start launches the pool on the first pull, so building and
// EXPLAINing a plan costs nothing. Each worker claims the next morsel
// under the claim mutex and registers the morsel's stream on the queue
// there, so queue order is morsel order; the queue's capacity bounds
// how far ahead of the gatherer claims may run, and each in-flight
// stream additionally buffers morselChanCap batches. The worker then
// runs the morsel's chain into its stream with its private context. A
// failed morsel stops every worker from claiming further morsels.
func (e *Exchange) start() {
	e.started = true
	e.done = make(chan struct{})
	total := e.src.morsels()
	e.launched = e.poolSize()
	e.queue = make(chan *morselStream, 2*e.launched)
	for range e.launched {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			w := e.newCtx()
			for !e.failed.Load() {
				e.mu.Lock()
				idx := e.next
				if idx >= total {
					e.mu.Unlock()
					return
				}
				ms := &morselStream{ch: make(chan *Batch, morselChanCap)}
				select {
				case e.queue <- ms:
				case <-e.done:
					e.mu.Unlock()
					return
				}
				e.next++
				e.mu.Unlock()
				if ms.err = e.runMorsel(idx, w, ms.ch); ms.err != nil {
					e.failed.Store(true)
				}
				close(ms.ch)
			}
		}()
	}
	go func() {
		e.wg.Wait()
		close(e.queue)
	}()
}

// runMorsel builds one morsel's operator chain and pushes its batches
// into ch. Before returning it closes the chain and adds the chain's
// counters to the prototype's.
func (e *Exchange) runMorsel(idx int, w *workerCtx, ch chan<- *Batch) error {
	e.morselsN.Add(1)
	op := e.src.operator(idx, w)
	for _, st := range e.stages {
		op = st(op, w)
	}
	defer func() {
		op.Close()
		e.repMu.Lock()
		addCounters(e.child, op)
		e.repMu.Unlock()
	}()
	for {
		b, ok, err := op.NextBatch(BatchTarget)
		if err != nil || !ok {
			return err
		}
		select {
		case ch <- b:
		case <-e.done:
			return errExchangeClosed
		}
	}
}

// addCounters adds a morsel chain's counters to the prototype chain,
// operator by operator. A morsel chain is built stage for stage like
// the prototype, so the two have the same shape.
func addCounters(proto, morsel Operator) {
	type counted interface{ opBase() *base }
	for proto != nil && morsel != nil {
		p, m := proto.(counted).opBase(), morsel.(counted).opBase()
		p.rows += m.rows
		p.batches += m.batches
		proto, morsel = p.child, m.child
	}
}

// NextBatch implements Operator: the ordered gather. Batches are
// served morsel by morsel in index order; a batch larger than max is
// handed out in slices. A failed morsel's error is returned when the
// gather reaches its stream.
func (e *Exchange) NextBatch(max int) (*Batch, bool, error) {
	max = clampMax(max)
	if !e.started {
		e.start()
	}
	for {
		if e.pending != nil {
			b := e.pending
			if e.pendOff == 0 && b.n <= max {
				e.pending = nil
				return e.emit(b)
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
			return e.emit(out)
		}
		if e.cur == nil {
			ms, ok := <-e.queue
			if !ok {
				return nil, false, nil
			}
			e.cur = ms
		}
		b, ok := <-e.cur.ch
		if !ok {
			if err := e.cur.err; err != nil {
				return nil, false, err
			}
			e.cur = nil
			continue
		}
		e.pending, e.pendOff = b, 0
	}
}

// Close implements Operator: cancels in-flight morsels (workers see
// the done channel on every blocking send and claim), waits for the
// pool to drain — so every morsel chain is closed before Close
// returns — and closes the prototype chain.
func (e *Exchange) Close() {
	if e.started && !e.closed {
		close(e.done)
		e.wg.Wait()
	}
	e.base.Close()
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
