package main

// The traced pass: a fixed seeded sample of the workload's ops is
// replayed serially at each entry depth, every call timed from outside
// and recorded as a span. A span's parent is the span one depth out for
// the same op, so self time = span minus children, and the self times
// of one op sum to its outermost span. Updating ops mutate, so each
// depth replays on its own copy of the loaded database.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/cypher"
	"repro/cypherclient"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/value"
)

// Layers, named after the modules whose time a span's self time is.
const (
	layerWire     = "cypherclient + internal/server (TCP, dispatch)"
	layerCodec    = "internal/server codec"
	layerFsync    = "internal/graph WAL fsync"
	layerAppend   = "internal/graph WAL append"
	layerFacade   = "cypher facade + statement cache"
	layerParse    = "internal/parser"
	layerCore     = "internal/core + plan/match/expr execute, graph commit"
	layerPlan     = "internal/plan + internal/match planner"
	layerValidate = "internal/graph Validate"
)

type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Class    string `json:"class"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

// add records a span that ended just now and took d; it returns its id.
func (t *tracer) add(name, layer string, parent, opIdx int, class string, d time.Duration) int {
	end := time.Since(t.epoch)
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Workload: t.workload,
		Op: opIdx, Class: class, StartNs: int64(end - d), EndNs: int64(end)})
	return id
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traced is what a traced pass found.
type traced struct {
	w          *workload
	tracer     *tracer
	entryName  string
	liveHeapMB float64
	attempted  int
	failed     int
	errs       []string
	metrics    map[string]metricValue // the contract's per-layer metrics
	specific   map[string]metricValue // layers only this workload enters
}

func (t *traced) fail(o *op, where string, err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf("%s at %s: %v", o.class, where, err))
	}
}

func coreParams(params map[string]any) (map[string]value.Value, error) {
	out := make(map[string]value.Value, len(params))
	for k, v := range params {
		cv, err := value.FromGo(v)
		if err != nil {
			return nil, err
		}
		out[k] = cv
	}
	return out, nil
}

// coreCaller enters below the facade, at core.Session.ExecuteWithTable,
// with the statement already parsed (through the engine's statement
// cache, so plan-cache identity is what the facade would give) and the
// parameters already converted.
func coreCaller(cs *core.Session) caller {
	return func(o *op) (reply, time.Duration, error) {
		stmt, err := cs.Parse(o.text)
		if err != nil {
			return reply{}, 0, err
		}
		params, err := coreParams(o.params)
		if err != nil {
			return reply{}, 0, err
		}
		var t0 *table.Table
		if o.table != nil {
			t0 = o.table.core()
		}
		start := time.Now()
		res, err := cs.ExecuteWithTable(stmt, params, t0)
		d := time.Since(start)
		if err != nil {
			return reply{}, d, err
		}
		rep := reply{stats: res.Stats, rows: make([][]value.Value, res.Table.Len())}
		for i := range rep.rows {
			rep.rows[i] = res.Table.Values(i)
		}
		return rep, d, nil
	}
}

// depth is one entry point of the replay with the state it runs on.
type depth struct {
	name  string // the function called
	layer string // whose time the span's self time is
	call  caller
	// misses reads a monotonic miss counter of the cache this depth
	// consults first: a parse or plan-build probe is on an op's path,
	// and so a child of this depth's span, only when the op's call here
	// missed. nil: no cache at this depth.
	misses func() int64
	close  func() error
}

func closeDepths(ds []*depth) error {
	var err error
	for _, d := range ds {
		err = errors.Join(err, d.close())
	}
	return err
}

// openDepths opens the replay's entry points, outermost first. The
// entry depth runs on the workload's own database; each deeper one on
// its own, built by the same load statements — not a DB.Snapshot clone,
// whose different memory layout shows as a millisecond of difference
// between depths on a 15 ms write.
func openDepths(w *workload, db *cypher.DB, m *model) (ds []*depth, store *graph.Store, err error) {
	defer func() {
		if err != nil {
			err = errors.Join(err, closeDepths(ds))
		}
	}()
	stmtMisses := func(c *cypher.DB) func() int64 {
		return func() int64 { return c.CacheStats().StmtMisses }
	}
	if w.served {
		srv, err := startServer(db)
		if err != nil {
			return nil, nil, err
		}
		ds = append(ds, &depth{name: "cypherclient.Conn.Exec", layer: layerWire, close: srv.stop})
		conn, err := cypherclient.Dial(srv.addr)
		if err != nil {
			return ds, nil, err
		}
		ds[0].call = wireCaller(conn)
		ds[0].close = func() error { return errors.Join(conn.Close(), srv.stop()) }

		c := cypher.Open()
		if err := loadGraph(c, m); err != nil {
			return ds, nil, err
		}
		sess := c.Session()
		ds = append(ds, &depth{name: "cypher.Session.Exec", layer: layerFacade, call: sessionCaller(sess), misses: stmtMisses(c),
			close: func() error { sess.Close(); return nil }})
	} else {
		ds = append(ds, &depth{name: "cypher.DB.ExecTable", layer: layerFacade, call: embeddedCaller(db), misses: stmtMisses(db),
			close: func() error { return nil }})
	}

	// The facade does not expose its store, so the core depth builds
	// its own from the same load statements.
	engine := core.NewEngine(core.Config{Dialect: core.DialectRevised})
	store = graph.NewStore(graph.New())
	cs := core.NewSession(engine, store)
	for _, s := range m.loadSteps() {
		stmt, err := cs.Parse(s.text)
		if err != nil {
			return ds, nil, err
		}
		var t0 *table.Table
		if s.table != nil {
			t0 = s.table.core()
		}
		if _, err := cs.ExecuteWithTable(stmt, nil, t0); err != nil {
			return ds, nil, fmt.Errorf("core load %q: %w", s.text, err)
		}
	}
	ds = append(ds, &depth{name: "core.Session.ExecuteWithTable", layer: layerCore, call: coreCaller(cs),
		misses: func() int64 { p := engine.CacheStats().Plan; return p.Misses + p.Invalidations },
		close:  func() error { cs.Close(); return nil }})
	return ds, store, nil
}

func drawSample(w *workload, m *model, seed int64) (ops []*op, warm int) {
	next := w.streams(m, seed, 1)[0]
	for u := 0; u < w.traceWarm; u++ {
		ops = append(ops, next()...)
	}
	warm = len(ops)
	for u := 0; u < w.traceUnits; u++ {
		ops = append(ops, next()...)
	}
	return ops, warm
}

// walProbe measures what the log adds to a small write, where a
// difference of two 15 ms statements could not: the sample's updates run
// on three users-only databases — in memory, OpenDir SyncNever, OpenDir
// SyncAlways — whose statements cost microseconds, so append = never −
// memory and fsync = always − never resolve.
type walProbe struct {
	// primer, memory, never, always. The primer is a second in-memory
	// database whose call goes first and is not used: whichever call
	// follows the big graph's finds the processor's caches cold.
	dbs    [4]*cypher.DB
	sess   [4]*cypher.Session
	calls  [4]caller
	dirs   []string
	loaded cypher.WALStatus // of the SyncAlways log, before the first probe
}

func openWALProbe(cfg config, w *workload, m *model) (*walProbe, error) {
	p := &walProbe{}
	users := m.userSteps() // no relationships, so Validate costs nothing
	for k, sync := range []cypher.SyncMode{0, 0, cypher.SyncNever, cypher.SyncAlways} {
		if k < 2 {
			p.dbs[k] = cypher.Open()
		} else {
			dir := filepath.Join(cfg.outDir, fmt.Sprintf("data-%s-wal-%s", w.name, sync))
			if err := os.RemoveAll(dir); err != nil {
				return nil, errors.Join(err, p.close())
			}
			p.dirs = append(p.dirs, dir)
			db, err := cypher.OpenDir(dir, cypher.WithDurability(cypher.Durability{Sync: sync}))
			if err != nil {
				return nil, errors.Join(err, p.close())
			}
			p.dbs[k] = db
		}
		if err := load(p.dbs[k], users); err != nil {
			return nil, errors.Join(err, p.close())
		}
		p.sess[k] = p.dbs[k].Session()
		p.calls[k] = sessionCaller(p.sess[k])
	}
	p.loaded, _ = p.dbs[3].WALStatus()
	return p, nil
}

// run executes one update on each database and returns what the log's
// append and its fsync added.
func (p *walProbe) run(o *op) (appendD, fsyncD time.Duration, err error) {
	var d [4]time.Duration
	for k, call := range p.calls {
		if _, d[k], err = call(o); err != nil {
			return 0, 0, err
		}
	}
	return d[2] - d[1], d[3] - d[2], nil
}

// logged reports the SyncAlways log's records and bytes since the load.
func (p *walProbe) logged() (records, bytes int64, err error) {
	st, _ := p.dbs[3].WALStatus()
	return st.Records - p.loaded.Records, st.Bytes - p.loaded.Bytes, st.Err
}

func (p *walProbe) close() error {
	var err error
	for k, db := range p.dbs {
		if p.sess[k] != nil {
			p.sess[k].Close()
		}
		if db != nil {
			err = errors.Join(err, db.Close())
		}
	}
	for _, dir := range p.dirs {
		err = errors.Join(err, os.RemoveAll(dir))
	}
	return err
}

func runTraced(w *workload, cfg config) (*traced, error) {
	m := generateModel(cfg.seed, sizesFor(cfg.scale))
	db, dir, _, err := setup(w, cfg, m, 1)
	if err != nil {
		return nil, err
	}
	t := &traced{w: w, tracer: &tracer{workload: w.name, epoch: time.Now()},
		metrics: map[string]metricValue{}, specific: map[string]metricValue{}, liveHeapMB: liveHeapMB()}
	err = t.run(cfg, m, db)
	if err == nil && w.durable {
		err = t.recoveryProbes(db, dir)
		db = nil // closed by the probes
	}
	if db != nil {
		err = errors.Join(err, db.Close())
	}
	if dir != "" {
		err = errors.Join(err, os.RemoveAll(dir))
	}
	if err != nil {
		return nil, err
	}
	return t, t.tracer.write(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl"))
}

func (t *traced) run(cfg config, m *model, db *cypher.DB) (err error) {
	w := t.w
	ops, warm := drawSample(w, m, cfg.seed)
	depths, store, err := openDepths(w, db, m)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, closeDepths(depths)) }()
	var wal *walProbe
	if w.durable {
		if wal, err = openWALProbe(cfg, w, m); err != nil {
			return err
		}
		defer func() { err = errors.Join(err, wal.close()) }()
	}
	planEngine := core.NewEngine(core.Config{Dialect: core.DialectRevised})
	entry, facade, coreDepth := depths[0], depths[len(depths)-2], depths[len(depths)-1]
	t.entryName = entry.name
	runtime.GC() // the copies' garbage, now rather than during the replay

	// Per sampled op, whichever of these were measured.
	var entryNs, facadeNs, coreNs, parseNs, planNs, validateNs, codecNs, appendNs, fsyncNs, wireWriteNs []int64
	var stmtHits, planHits, rows, replyBytes int
	var allocBytes, mallocs uint64
	var loopStart time.Time
	tr := t.tracer

	// The depths are interleaved per op — op i at every depth, then op
	// i+1 — so that drift in the machine's state (heap size, frequency,
	// scheduler) cancels in the differences between depths.
	for i, o := range ops {
		if i == warm {
			loopStart = time.Now()
		}
		rec := i >= warm
		idx := i - warm
		parent := 0
		var entryReply reply
		var entrySpan int
		for _, d := range depths {
			var before int64
			if d.misses != nil {
				before = d.misses()
			}
			if !w.served {
				// An embedded statement allocates megabytes; collect them
				// now, or the next depth's call pays for this one's garbage.
				runtime.GC()
			}
			var ms0, ms1 runtime.MemStats
			if rec && d == coreDepth {
				runtime.ReadMemStats(&ms0)
			}
			rep, dur, err := d.call(o)
			if rec && d == coreDepth {
				runtime.ReadMemStats(&ms1)
				allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
				mallocs += ms1.Mallocs - ms0.Mallocs
				rows += len(rep.rows)
			}
			var planD time.Duration
			if d == coreDepth {
				// The probe engine sees every op, warm-up too, so where
				// misses are the rule its plan cache is as full as this
				// depth's (where hits are, the sample cannot fill it).
				var perr error
				if planD, perr = timePlanBuild(planEngine, store, o); perr != nil {
					t.fail(o, "core.Engine.ExplainStatement", perr)
				}
			}
			if !rec {
				continue
			}
			missed := d.misses != nil && d.misses() > before
			t.attempted++
			if err == nil {
				err = o.check(rep)
			}
			if err != nil {
				t.fail(o, d.name, err)
			}
			parent = tr.add(d.name, d.layer, parent, idx, o.class, dur)
			if d == entry {
				entryNs, entryReply, entrySpan = append(entryNs, int64(dur)), rep, parent
				if o.update {
					wireWriteNs = append(wireWriteNs, int64(dur))
				}
			}
			if d == facade {
				facadeNs = append(facadeNs, int64(dur))
				start := time.Now()
				_, err := parser.Parse(o.text)
				pd := time.Since(start)
				parseNs = append(parseNs, int64(pd))
				if err != nil {
					t.fail(o, "parser.Parse", err)
				}
				if missed {
					tr.add("parser.Parse", layerParse, parent, idx, o.class, pd)
				} else {
					stmtHits++
				}
			}
			if d == coreDepth {
				coreNs = append(coreNs, int64(dur))
				planNs = append(planNs, int64(planD))
				if missed {
					tr.add("core.Engine.ExplainStatement", layerPlan, parent, idx, o.class, planD)
				} else {
					planHits++
				}
				if o.update {
					vd, err := timeValidate(store)
					validateNs = append(validateNs, int64(vd))
					if err != nil {
						t.fail(o, "graph.Graph.Validate", err)
					}
					tr.add("graph.Graph.Validate", layerValidate, parent, idx, o.class, vd)
				}
			}
		}
		if wal != nil && o.update {
			ad, fd, err := wal.run(o)
			if err != nil {
				t.fail(o, "wal probe", err)
			}
			if rec {
				appendNs, fsyncNs = append(appendNs, int64(ad)), append(fsyncNs, int64(fd))
				tr.add("graph.WAL append (probe)", layerAppend, entrySpan, idx, o.class, max(0, ad))
				tr.add("graph.WAL fsync (probe)", layerFsync, entrySpan, idx, o.class, max(0, fd))
			}
		}
		if rec && w.served {
			cd, n, err := codecRoundTrip(o, entryReply)
			if err != nil {
				t.fail(o, "codec", err)
			}
			codecNs, replyBytes = append(codecNs, int64(cd)), replyBytes+n
			tr.add("server.WriteFrame/ReadFrame/EncodeValue/DecodeValue", layerCodec, entrySpan, idx, o.class, cd)
		}
	}
	loopWall := time.Since(loopStart)

	us := func(ns []int64) metricValue {
		return metricValue{Value: quantile(ns, 0.5) / 1e3, Unit: "us", Samples: len(ns)}
	}
	per := func(total float64, unit string, count bool) metricValue {
		return metricValue{Value: total / float64(len(entryNs)), Unit: unit, Samples: len(entryNs), Count: count}
	}
	mm := t.metrics
	mm["entry_us"] = us(entryNs)
	mm["core_us"] = us(coreNs)
	mm["parse_us"] = us(parseNs)
	mm["plan_build_us"] = us(planNs)
	for len(validateNs) < 5 { // a read-only sample: time Validate directly
		d, err := timeValidate(store)
		if err != nil {
			return err
		}
		validateNs = append(validateNs, int64(d))
	}
	mm["validate_us"] = us(validateNs)
	mm["commit_us"] = commitProbe()
	mm["acquire_us"] = probeBatches(50, 1000, func(int) { store.Acquire().Release() })
	mm["alloc_kb_per_op"] = per(float64(allocBytes)/1024, "KB", false)
	mm["mallocs_per_op"] = per(float64(mallocs), "count", false)
	mm["stmt_cache_hit_ratio"] = metricValue{Value: float64(stmtHits) / float64(len(facadeNs)), Unit: "ratio", Samples: len(facadeNs), Count: true}
	mm["plan_cache_hit_ratio"] = metricValue{Value: float64(planHits) / float64(len(coreNs)), Unit: "ratio", Samples: len(coreNs), Count: true}
	mm["live_heap_mb"] = metricValue{Value: t.liveHeapMB, Unit: "MB"}
	// Tracing is done from outside, so its cost is what the replay loop
	// spends around the calls it times — probing, recording, checking:
	// the share of the loop's wall time not inside a depth's call.
	var inCalls int64
	for _, ns := range [][]int64{entryNs, coreNs} {
		for _, v := range ns {
			inCalls += v
		}
	}
	if facade != entry {
		for _, v := range facadeNs {
			inCalls += v
		}
	}
	mm["trace_overhead_frac"] = metricValue{Value: 1 - float64(inCalls)/float64(loopWall), Unit: "ratio", Samples: len(entryNs)}

	// Layers only this workload enters.
	sp := t.specific
	sp["rows_out_per_op"] = per(float64(rows), "count", true)
	sp["facade_us"] = metricValue{Value: (quantile(facadeNs, 0.5) - quantile(coreNs, 0.5)) / 1e3, Unit: "us", Samples: len(facadeNs)}
	if w.served {
		sp["wire_us"] = metricValue{Value: (quantile(entryNs, 0.5) - quantile(facadeNs, 0.5)) / 1e3, Unit: "us", Samples: len(entryNs)}
		sp["codec_us"] = us(codecNs)
		sp["reply_bytes_per_op"] = per(float64(replyBytes), "B", true)
	}
	if wal != nil {
		sp["wal_append_us"], sp["wal_fsync_us"] = us(appendNs), us(fsyncNs)
		records, bytes, err := wal.logged()
		if err != nil {
			return err
		}
		sp["wal_bytes_per_write"] = metricValue{Value: float64(bytes) / float64(records), Unit: "B", Samples: int(records), Count: true}
		sp["validate_share_of_write"] = metricValue{Value: quantile(validateNs, 0.5) / quantile(wireWriteNs, 0.5), Unit: "ratio", Samples: len(wireWriteNs)}
	}
	return nil
}

// timePlanBuild times lowering, folding and anchor planning of a
// freshly parsed statement — a new AST, so the plan cache misses —
// without executing it.
func timePlanBuild(e *core.Engine, store *graph.Store, o *op) (time.Duration, error) {
	stmt, err := parser.Parse(o.text)
	if err != nil {
		return 0, err
	}
	params, err := coreParams(o.params)
	if err != nil {
		return 0, err
	}
	snap := store.Acquire()
	defer snap.Release()
	start := time.Now()
	_, err = e.ExplainStatement(snap.Graph(), stmt, params)
	return time.Since(start), err
}

func timeValidate(store *graph.Store) (time.Duration, error) {
	snap := store.Acquire()
	defer snap.Release()
	start := time.Now()
	err := snap.Graph().Validate()
	return time.Since(start), err
}

// recoveryProbes closes the durable workload's database at the end of
// its traced pass: it reads the log's counters, times recovery by
// reopening the directory, and times one forced checkpoint.
func (t *traced) recoveryProbes(db *cypher.DB, dir string) error {
	st, _ := db.WALStatus()
	if st.Err != nil {
		return errors.Join(st.Err, db.Close())
	}
	t.specific["checkpoints"] = metricValue{Value: float64(st.Checkpoints), Unit: "count", Count: true}
	if err := db.Close(); err != nil {
		return err
	}
	start := time.Now()
	re, err := cypher.OpenDir(dir, cypher.WithDurability(cypher.Durability{Sync: cypher.SyncAlways}))
	if err != nil {
		return err
	}
	t.specific["recover_ms"] = metricValue{Value: float64(time.Since(start)) / 1e6, Unit: "ms", Samples: 1}
	start = time.Now()
	err = re.Checkpoint()
	t.specific["checkpoint_ms"] = metricValue{Value: float64(time.Since(start)) / 1e6, Unit: "ms", Samples: 1}
	return errors.Join(err, re.Close())
}

// probeBatches times f in batches — one call is near the clock's
// resolution — and reports the median per-call time.
func probeBatches(batches, perBatch int, f func(i int)) metricValue {
	us := make([]float64, batches)
	for b := range us {
		start := time.Now()
		for k := 0; k < perBatch; k++ {
			f(b*perBatch + k)
		}
		us[b] = float64(time.Since(start)) / 1e3 / float64(perBatch)
	}
	return metricValue{Value: median(us), Unit: "us", Samples: batches * perBatch}
}

// commitProbe times BeginWrite → one property change → Commit on a bare
// store: the fixed cost of a write transaction.
func commitProbe() metricValue {
	g := graph.New()
	id := g.CreateNode([]string{"N"}, nil).ID
	st := graph.NewStore(g)
	return probeBatches(50, 100, func(i int) {
		w := st.BeginWrite()
		_ = w.Graph().SetNodeProp(id, "v", value.Int(i)) // the node exists
		_, _ = w.Commit()                                // no WAL: cannot fail
	})
}

// codecRoundTrip pushes an op's request and its recorded reply through
// the server's frame and value codec and a bytes.Buffer: run, success,
// pull, rows — each written and read back once. It returns the time and
// the reply frames' size.
func codecRoundTrip(o *op, rep reply) (time.Duration, int, error) {
	params, err := coreParams(o.params)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	run := &server.Message{Type: "run", Query: o.text}
	if len(params) > 0 {
		run.Params = make(map[string]server.WireValue, len(params))
		for k, v := range params {
			if run.Params[k], err = server.EncodeValue(v); err != nil {
				return 0, 0, err
			}
		}
	}
	rows := &server.Message{Type: "success", Rows: make([][]server.WireValue, len(rep.rows))}
	for i, row := range rep.rows {
		rows.Rows[i] = make([]server.WireValue, len(row))
		for j, v := range row {
			if rows.Rows[i][j], err = server.EncodeValue(v); err != nil {
				return 0, 0, err
			}
		}
	}
	success := &server.Message{Type: "success", Columns: make([]string, rowWidth(rep)), Stats: &server.WireStats{
		NodesCreated: rep.stats.NodesCreated, NodesDeleted: rep.stats.NodesDeleted, RelsCreated: rep.stats.RelsCreated,
		RelsDeleted: rep.stats.RelsDeleted, PropsSet: rep.stats.PropsSet}}
	var buf bytes.Buffer
	replyBytes := 0
	for _, msg := range []*server.Message{run, success, {Type: "pull", N: 4096}, rows} {
		buf.Reset()
		if err := server.WriteFrame(&buf, msg); err != nil {
			return 0, 0, err
		}
		if msg == success || msg == rows {
			replyBytes += buf.Len()
		}
		back, err := server.ReadFrame(&buf, 0)
		if err != nil {
			return 0, 0, err
		}
		for _, wv := range back.Params {
			if _, err := server.DecodeValue(wv); err != nil {
				return 0, 0, err
			}
		}
		for _, row := range back.Rows {
			for _, wv := range row {
				if _, err := server.DecodeValue(wv); err != nil {
					return 0, 0, err
				}
			}
		}
	}
	return time.Since(start), replyBytes, nil
}

func rowWidth(rep reply) int {
	if len(rep.rows) == 0 {
		return 0
	}
	return len(rep.rows[0])
}

// ---------------------------------------------------------------------
// The budget: self time per layer
// ---------------------------------------------------------------------

// budgetRow is one layer's share of one statement class's latency.
type budgetRow struct {
	Class  string  `json:"class"`
	Layer  string  `json:"layer"`
	SelfUs float64 `json:"self_us"` // median over the class's ops
	Share  float64 `json:"share"`   // of the class's entry median
}

// budget derives, from the spans alone, each layer's median self time
// per statement class. A span's self time is its duration minus its
// children's; layers in first-seen (outermost-first) order.
func budget(spans []span) (rows []budgetRow, entryUs map[string]float64, sumUs map[string]float64) {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	type key struct{ class, layer string }
	self := map[key][]int64{}
	entry := map[string][]int64{}
	ops := map[string]map[int]struct{}{}
	var order []key
	for _, s := range spans {
		k := key{s.Class, s.Layer}
		if _, ok := self[k]; !ok {
			order = append(order, k)
		}
		self[k] = append(self[k], s.EndNs-s.StartNs-child[s.ID])
		if s.Parent == 0 {
			entry[s.Class] = append(entry[s.Class], s.EndNs-s.StartNs)
		}
		if ops[s.Class] == nil {
			ops[s.Class] = map[int]struct{}{}
		}
		ops[s.Class][s.Op] = struct{}{}
	}
	entryUs, sumUs = map[string]float64{}, map[string]float64{}
	for c, ns := range entry {
		entryUs[c] = quantile(ns, 0.5) / 1e3
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].class < order[j].class })
	for _, k := range order {
		ns := self[k]
		// A layer off the path of some of the class's ops (a probe that
		// only a miss puts there) costs those ops nothing.
		for len(ns) < len(ops[k.class]) {
			ns = append(ns, 0)
		}
		us := quantile(ns, 0.5) / 1e3
		rows = append(rows, budgetRow{Class: k.class, Layer: k.layer, SelfUs: us, Share: us / entryUs[k.class]})
		sumUs[k.class] += us
	}
	return rows, entryUs, sumUs
}

func (t *traced) fill(rec *record) {
	rec.Attempted, rec.Failed, rec.Errors = t.attempted, t.failed, t.errs
	for n, v := range t.metrics {
		rec.Metrics[n] = v
	}
	for n, v := range t.specific {
		rec.Diagnostics[n] = v
	}
	rec.Budget, rec.BudgetEntryUs, rec.BudgetSumUs = budget(t.tracer.spans)
	rec.EntryPoint = t.entryName
}
