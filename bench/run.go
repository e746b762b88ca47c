package main

// The measured run of one workload: set-up, warm-up, a closed-loop
// window with tracing off, the end-of-run checks, teardown.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/cypher"
	"repro/cypherclient"
	"repro/internal/server"
)

const (
	setupRepeats = 3 // setup_s is the median of this many builds
	maxClients   = 2
)

type config struct {
	seed    int64
	scale   float64
	seconds float64
	outDir  string
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }
func (c config) warmup() time.Duration { return c.window() / 10 }

func numClients() int { return min(runtime.NumCPU(), maxClients) }

// openDB opens an empty database for w: in memory, or durable in a
// fresh directory under the output directory.
func openDB(w *workload, cfg config, tag string) (db *cypher.DB, dir string, err error) {
	if !w.durable {
		return cypher.Open(), "", nil
	}
	dir = filepath.Join(cfg.outDir, fmt.Sprintf("data-%s-%s", w.name, tag))
	if err := os.RemoveAll(dir); err != nil {
		return nil, "", err
	}
	db, err = cypher.OpenDir(dir, cypher.WithDurability(cypher.Durability{Sync: cypher.SyncAlways}))
	return db, dir, err
}

func closeDB(db *cypher.DB, dir string) error {
	err := db.Close()
	if dir != "" {
		err = errors.Join(err, os.RemoveAll(dir))
	}
	return err
}

// load runs load statements through the facade.
func load(db *cypher.DB, steps []loadStep) error {
	for _, s := range steps {
		var err error
		if s.table == nil {
			_, err = db.Exec(s.text, nil)
		} else {
			_, err = db.ExecTable(s.text, s.table.facade(), nil)
		}
		if err != nil {
			return fmt.Errorf("load %q: %w", s.text, err)
		}
	}
	return nil
}

// loadGraph builds the whole generated graph in db.
func loadGraph(db *cypher.DB, m *model) error {
	if err := load(db, m.loadSteps()); err != nil {
		return err
	}
	if db.NumNodes() != m.sz.nodes() || db.NumRels() != m.sz.rels() {
		return fmt.Errorf("loaded %d nodes / %d rels, want %d / %d", db.NumNodes(), db.NumRels(), m.sz.nodes(), m.sz.rels())
	}
	return nil
}

// setup builds the workload's database n times and keeps the last; the
// build goes through the WAL when the workload is durable.
func setup(w *workload, cfg config, m *model, n int) (db *cypher.DB, dir string, secs []float64, err error) {
	for k := 0; k < n; k++ {
		if db != nil {
			if err := closeDB(db, dir); err != nil {
				return nil, "", nil, err
			}
		}
		start := time.Now()
		db, dir, err = openDB(w, cfg, fmt.Sprint(k))
		if err != nil {
			return nil, "", nil, err
		}
		if err := loadGraph(db, m); err != nil {
			return nil, "", nil, errors.Join(err, closeDB(db, dir))
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return db, dir, secs, nil
}

// caller runs one op at some entry point and reports how long the call
// itself took; converting the reply for the checks is not timed.
type caller func(o *op) (reply, time.Duration, error)

func wireCaller(c *cypherclient.Conn) caller {
	return func(o *op) (reply, time.Duration, error) {
		start := time.Now()
		res, err := c.Exec(o.text, o.params)
		d := time.Since(start)
		if err != nil {
			return reply{}, d, err
		}
		return reply{rows: res.Rows, stats: cypher.UpdateStats(res.Stats)}, d, nil
	}
}

func facadeReply(res *cypher.Result) reply {
	r := reply{stats: res.Stats(), rows: make([][]cypher.Value, res.NumRows())}
	for i := range r.rows {
		r.rows[i] = res.Values(i)
	}
	return r
}

// sessionCaller enters at cypher.Session.Exec, the call the server
// makes for each wire statement.
func sessionCaller(s *cypher.Session) caller {
	return func(o *op) (reply, time.Duration, error) {
		start := time.Now()
		res, err := s.Exec(o.text, o.params)
		d := time.Since(start)
		if err != nil {
			return reply{}, d, err
		}
		return facadeReply(res), d, nil
	}
}

// embeddedCaller enters at DB.ExecTable (DB.Exec for an op without a
// driving table), the embedded workloads' entry point.
func embeddedCaller(db *cypher.DB) caller {
	return func(o *op) (reply, time.Duration, error) {
		var (
			res *cypher.Result
			err error
			d   time.Duration
		)
		if o.table == nil {
			start := time.Now()
			res, err = db.Exec(o.text, o.params)
			d = time.Since(start)
		} else {
			t := o.table.facade()
			start := time.Now()
			res, err = db.ExecTable(o.text, t, o.params)
			d = time.Since(start)
		}
		if err != nil {
			return reply{}, d, err
		}
		return facadeReply(res), d, nil
	}
}

// loopServer serves db on a loopback port with cypherd's defaults.
type loopServer struct {
	srv  *server.Server
	addr string
	done chan error
}

func startServer(db *cypher.DB) (*loopServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &loopServer{srv: server.New(db, server.Options{}), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *loopServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return errors.Join(s.srv.Shutdown(ctx), <-s.done)
}

// unit is one thing a caller waited for: a statement over the wire, or
// a whole cycle or pass.
type unit struct {
	end        time.Time
	ns         int64 // in the calls, checks not included
	statements int
}

// tally is one caller's record of a window.
type tally struct {
	units     []unit
	classNs   map[string][]int64 // per statement class
	readNs    []int64            // per read statement
	writeNs   []int64            // per updating statement
	attempted int
	failed    int
	errs      []string // the first few failures
	dNodes    int
	dRels     int
	end       time.Time
}

func (t *tally) fail(o *op, err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf("%s: %v", o.class, err))
	}
}

// drive runs units from next through call until the deadline. A unit
// that started counts whole. sizes, when set, reads the graph's node
// and relationship counts so each op's effect on them is checked too
// (single caller only).
func drive(next func() []*op, call caller, deadline time.Time, sizes func() (int, int)) *tally {
	t := &tally{classNs: map[string][]int64{}}
	for time.Now().Before(deadline) {
		var u unit
		for _, o := range next() {
			var n0, r0 int
			if sizes != nil {
				n0, r0 = sizes()
			}
			rep, d, err := call(o)
			t.attempted++
			if err == nil {
				err = o.check(rep)
			}
			if err == nil && sizes != nil {
				if n1, r1 := sizes(); n1-n0 != o.dNodes || r1-r0 != o.dRels {
					err = fmt.Errorf("graph grew by %d nodes / %d rels, want %d / %d", n1-n0, r1-r0, o.dNodes, o.dRels)
				}
			}
			if err != nil {
				t.fail(o, err)
			}
			u.ns += int64(d)
			u.statements++
			t.classNs[o.class] = append(t.classNs[o.class], int64(d))
			if o.update {
				t.writeNs = append(t.writeNs, int64(d))
			} else {
				t.readNs = append(t.readNs, int64(d))
			}
			t.dNodes += o.dNodes
			t.dRels += o.dRels
		}
		u.end = time.Now()
		t.units = append(t.units, u)
	}
	t.end = time.Now()
	return t
}

func mergeTallies(ts []*tally) *tally {
	all := &tally{classNs: map[string][]int64{}}
	for _, t := range ts {
		all.units = append(all.units, t.units...)
		all.readNs = append(all.readNs, t.readNs...)
		all.writeNs = append(all.writeNs, t.writeNs...)
		for c, ns := range t.classNs {
			all.classNs[c] = append(all.classNs[c], ns...)
		}
		all.attempted += t.attempted
		all.failed += t.failed
		all.errs = append(all.errs, t.errs...)
		all.dNodes += t.dNodes
		all.dRels += t.dRels
		if t.end.After(all.end) {
			all.end = t.end
		}
	}
	sort.Slice(all.units, func(i, j int) bool { return all.units[i].end.Before(all.units[j].end) })
	return all
}

// fifths cuts a window's units, in completion order, into five
// consecutive runs of equal count and summarises each: statements per
// second over the time the run spans, and the median and 95th percentile
// of its units' latency. The window's figure is the median of the five,
// so a disturbance from outside that lasts a part of the window — a
// collection, a neighbour on the machine — does not move it.
func fifths(units []unit, start time.Time) (opsPerS, p50ms, p95ms float64) {
	const parts = 5
	var rates, p50s, p95s []float64
	n := len(units)
	for k := 0; k < parts; k++ {
		run := units[k*n/parts : (k+1)*n/parts]
		if len(run) == 0 {
			continue
		}
		statements := 0
		ns := make([]int64, len(run))
		for i, u := range run {
			statements += u.statements
			ns[i] = u.ns
		}
		end := run[len(run)-1].end
		rates = append(rates, float64(statements)/end.Sub(start).Seconds())
		p50s = append(p50s, quantile(ns, 0.50)/1e6)
		p95s = append(p95s, quantile(ns, 0.95)/1e6)
		start = end
	}
	return median(rates), median(p50s), median(p95s)
}

// harness is a workload's database with its callers attached: wire
// connections to a loopback server, or the embedded facade.
type harness struct {
	w       *workload
	db      *cypher.DB
	srv     *loopServer
	conns   []*cypherclient.Conn
	callers []caller
	streams []func() []*op
}

func attach(w *workload, db *cypher.DB, m *model, seed int64) (*harness, error) {
	h := &harness{w: w, db: db}
	if !w.served {
		h.streams = w.streams(m, seed, 1)
		h.callers = []caller{embeddedCaller(db)}
		return h, nil
	}
	var err error
	if h.srv, err = startServer(db); err != nil {
		return nil, err
	}
	h.streams = w.streams(m, seed, numClients())
	for range h.streams {
		c, err := cypherclient.Dial(h.srv.addr)
		if err != nil {
			return nil, errors.Join(err, h.detach())
		}
		h.conns = append(h.conns, c)
		h.callers = append(h.callers, wireCaller(c))
	}
	return h, nil
}

func (h *harness) detach() error {
	var err error
	for _, c := range h.conns {
		err = errors.Join(err, c.Close())
	}
	if h.srv != nil {
		err = errors.Join(err, h.srv.stop())
	}
	return err
}

// window drives every caller in a closed loop for d and returns the
// merged record and when the window began.
func (h *harness) window(d time.Duration) (*tally, time.Time) {
	var sizes func() (int, int)
	if !h.w.served {
		sizes = func() (int, int) { return h.db.NumNodes(), h.db.NumRels() }
	}
	start := time.Now()
	deadline := start.Add(d)
	ts := make([]*tally, len(h.callers))
	var wg sync.WaitGroup
	for i := range h.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ts[i] = drive(h.streams[i], h.callers[i], deadline, sizes)
		}()
	}
	wg.Wait()
	return mergeTallies(ts), start
}

// checker counts end-of-run checks; each failed one is a failed attempt.
type checker struct {
	checks   int
	failures []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.checks++
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// endChecks compares the database with the generator's model after the
// run, then closes it; a durable one is reopened and compared again.
func endChecks(c *checker, w *workload, db *cypher.DB, dir string, m *model, dNodes, dRels int) {
	wantNodes, wantRels := m.sz.nodes()+dNodes, m.sz.rels()+dRels
	c.check(db.NumNodes() == wantNodes && db.NumRels() == wantRels,
		"end of run: %d nodes / %d rels, model says %d / %d", db.NumNodes(), db.NumRels(), wantNodes, wantRels)
	c.check(db.PinnedSnapshots() == 0, "end of run: %d snapshots still pinned", db.PinnedSnapshots())
	st, _ := db.WALStatus()
	err := db.Close()
	c.check(st.Err == nil && err == nil, "wal failed: %v; close: %v", st.Err, err)
	if !w.durable {
		return
	}
	// The epoch to come back is the last one logged, not db.Epoch(): a
	// commit that changed nothing (a MERGE SAME that matched) advances
	// the epoch in memory but writes no record.
	epoch := st.LastEpoch
	re, err := cypher.OpenDir(dir, cypher.WithDurability(cypher.Durability{Sync: cypher.SyncAlways}))
	if err != nil {
		c.check(false, "reopen: %v", err)
		return
	}
	st, _ = re.WALStatus()
	c.check(re.NumNodes() == wantNodes && re.NumRels() == wantRels && re.Epoch() == epoch && st.Err == nil,
		"after reopen: %d nodes / %d rels at epoch %d (wal err %v), want %d / %d at epoch %d",
		re.NumNodes(), re.NumRels(), re.Epoch(), st.Err, wantNodes, wantRels, epoch)
	c.check(re.Close() == nil, "close after reopen failed")
}

// measured is what a run with tracing off found.
type measured struct {
	setupSecs  []float64
	liveHeapMB float64
	tally      *tally
	start      time.Time
	gc         gcDelta
	walStatus  cypher.WALStatus
	end        checker
}

type gcDelta struct {
	numGC   uint32
	pauseMs float64
}

func gcSince(before *runtime.MemStats) gcDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return gcDelta{numGC: after.NumGC - before.NumGC, pauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6}
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func runMeasured(w *workload, cfg config) (*measured, error) {
	m := generateModel(cfg.seed, sizesFor(cfg.scale))
	db, dir, secs, err := setup(w, cfg, m, setupRepeats)
	if err != nil {
		return nil, err
	}
	res := &measured{setupSecs: secs, liveHeapMB: liveHeapMB()}
	h, err := attach(w, db, m, cfg.seed)
	if err != nil {
		return nil, errors.Join(err, closeDB(db, dir))
	}
	warm, _ := h.window(cfg.warmup())
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	res.tally, res.start = h.window(cfg.window())
	res.gc = gcSince(&before)
	res.walStatus, _ = db.WALStatus()
	err = h.detach()

	// Warm-up failures count: the database is already wrong.
	res.tally.attempted += warm.attempted
	res.tally.failed += warm.failed
	res.tally.errs = append(warm.errs, res.tally.errs...)
	endChecks(&res.end, w, db, dir, m, warm.dNodes+res.tally.dNodes, warm.dRels+res.tally.dRels)
	if dir != "" {
		err = errors.Join(err, os.RemoveAll(dir))
	}
	return res, err
}
