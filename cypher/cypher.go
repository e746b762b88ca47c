// Package cypher is the public API of the graph database: an embedded,
// in-memory property graph store queried and updated with Cypher, as
// described in "Updating Graph Databases with Cypher" (Green et al.,
// PVLDB 12(12), 2019).
//
// The database supports two update dialects:
//
//   - Cypher9 reproduces the legacy record-by-record update pipeline
//     of Neo4j's Cypher 9, including the atomicity and determinism
//     defects the paper catalogues in Section 4 (use it to study them);
//   - Revised (the default) implements the corrected semantics of
//     Sections 7-8: atomic SET with conflict detection, strict DELETE
//     with null replacement, and the MERGE ALL / MERGE SAME clauses.
//
// Quickstart:
//
//	db := cypher.Open()
//	db.Exec(`CREATE (:User{id:1, name:'Ada'})-[:KNOWS]->(:User{id:2, name:'Bob'})`, nil)
//	res, _ := db.Exec(`MATCH (a:User)-[:KNOWS]->(b) RETURN a.name AS a, b.name AS b`, nil)
//	for _, row := range res.Rows() {
//	    fmt.Println(row["a"], row["b"])
//	}
package cypher

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/parser"
	"repro/internal/table"
	"repro/internal/value"
)

// Dialect selects the update semantics of a database.
type Dialect = core.Dialect

// Dialects.
const (
	// Cypher9 is the legacy pipeline of Section 3 with the Section 4
	// defects preserved.
	Cypher9 = core.DialectCypher9
	// Revised is the atomic, deterministic semantics of Section 7.
	Revised = core.DialectRevised
)

// MergeStrategy selects among the Section 6 proposals for MERGE.
type MergeStrategy = core.MergeStrategy

// Merge strategies (see the paper's Section 6).
const (
	MergeFromForm       = core.StrategyFromForm
	MergeLegacy         = core.StrategyLegacy
	MergeAtomic         = core.StrategyAtomic
	MergeGrouping       = core.StrategyGrouping
	MergeWeakCollapse   = core.StrategyWeakCollapse
	MergeCollapse       = core.StrategyCollapse
	MergeStrongCollapse = core.StrategyStrongCollapse
)

// ScanOrder controls legacy-mode record iteration (Example 3).
type ScanOrder = core.ScanOrder

// Scan orders.
const (
	ScanForward = core.ScanForward
	ScanReverse = core.ScanReverse
)

// MatchMode selects pattern matching semantics.
type MatchMode = match.Mode

// Match modes.
const (
	// Isomorphism is Cypher's default: distinct relationship slots bind
	// distinct relationships (Section 2).
	Isomorphism = match.Isomorphism
	// Homomorphism allows relationship reuse (Example 7 discussion).
	Homomorphism = match.Homomorphism
)

// Value is a Cypher runtime value (see repro/internal/value for kinds).
type Value = value.Value

// Durability configures the write-ahead log of a database opened with
// OpenDir: the fsync policy and the log size that triggers automatic
// checkpoints. The zero value is the safe default (fsync every commit,
// checkpoint every 4 MiB of log).
type Durability = graph.Durability

// SyncMode selects when the write-ahead log is fsynced.
type SyncMode = graph.SyncMode

// Sync modes.
const (
	// SyncAlways fsyncs on every commit (the default): committed means
	// crash-proof.
	SyncAlways = graph.SyncAlways
	// SyncInterval fsyncs in the background every Durability.SyncEvery:
	// a crash loses at most the last interval's commits.
	SyncInterval = graph.SyncInterval
	// SyncNever leaves flushing to the operating system.
	SyncNever = graph.SyncNever
)

// WALStatus is a point-in-time summary of a durable database's
// write-ahead log (see DB.WALStatus and the shell's :wal command).
type WALStatus = graph.WALStatus

// UpdateStats counts the effects of a statement.
type UpdateStats = core.UpdateStats

// Option configures a database.
type Option func(*options)

type options struct {
	cfg        core.Config
	durability Durability // read by OpenDir only
}

// WithDialect selects the update dialect (default Revised).
func WithDialect(d Dialect) Option {
	return func(o *options) { o.cfg.Dialect = d }
}

// WithMergeStrategy overrides the strategy used by MERGE clauses
// (default: derived from the clause form).
func WithMergeStrategy(s MergeStrategy) Option {
	return func(o *options) { o.cfg.MergeStrategy = s }
}

// WithScanOrder sets the record iteration order of legacy update clauses.
func WithScanOrder(s ScanOrder) Option {
	return func(o *options) { o.cfg.ScanOrder = s }
}

// WithMatchMode selects isomorphic (default) or homomorphic matching.
func WithMatchMode(m MatchMode) Option {
	return func(o *options) { o.cfg.MatchMode = m }
}

// WithMemoryBudget caps the bytes each statement's blocking operators
// (ORDER BY, aggregation, DISTINCT) may hold in memory. A statement
// whose barriers exceed the budget spills sorted runs and hash
// partitions to temporary files and merges them back, trading disk I/O
// for bounded peak memory; results are identical either way. Zero or
// negative (the default) means unlimited.
func WithMemoryBudget(bytes int64) Option {
	return func(o *options) { o.cfg.MemoryBudget = bytes }
}

// WithParallelism sets the worker-pool degree for morsel-driven
// parallel execution of read-only statements: large scans and pattern
// matches are split into morsels executed by up to n workers, with
// results gathered in order so output is identical to a serial run.
// Zero (the default) means GOMAXPROCS; 1 disables parallelism.
// Updating statements and statements inside explicit transactions
// always run serially regardless of this setting.
func WithParallelism(n int) Option {
	return func(o *options) { o.cfg.Parallelism = n }
}

// WithDurability sets the write-ahead log configuration used when the
// database is opened against a data directory (OpenDir). It has no
// effect on a purely in-memory database.
func WithDurability(d Durability) Option {
	return func(o *options) { o.durability = d }
}

// DB is an embedded graph database. All methods are safe for concurrent
// use. Statements execute transactionally: updating statements are
// serialized through a single-writer commit pipeline, while read-only
// statements stream concurrently from pinned snapshots of the last
// committed epoch — readers never block each other, and never observe
// a partially applied statement or transaction.
//
// DB.Exec auto-commits every statement. For explicit multi-statement
// transactions (BEGIN/COMMIT/ROLLBACK), open a Session.
type DB struct {
	store  *graph.Store
	engine *core.Engine
	opts   options
	wal    *graph.WAL // non-nil when opened durably (OpenDir)
}

// Open creates an empty database.
func Open(opts ...Option) *DB {
	var o options
	o.cfg.Dialect = core.DialectRevised
	for _, opt := range opts {
		opt(&o)
	}
	return &DB{
		store:  graph.NewStore(graph.New()),
		engine: core.NewEngine(o.cfg),
		opts:   o,
	}
}

// OpenDir opens a durable database rooted at dir, creating the
// directory if needed. The latest checkpoint snapshot is loaded and
// the write-ahead log replayed over it, so the database resumes at
// exactly the committed state that reached disk — a torn record left
// by a crash mid-commit is detected by its checksum and discarded.
// Every further commit is appended to the log (and fsynced, under the
// default Durability) before it is observable. Close the database when
// done; configure logging with WithDurability.
func OpenDir(dir string, opts ...Option) (*DB, error) {
	var o options
	o.cfg.Dialect = core.DialectRevised
	for _, opt := range opts {
		opt(&o)
	}
	store, wal, err := graph.Recover(dir, o.durability)
	if err != nil {
		return nil, err
	}
	return &DB{
		store:  store,
		engine: core.NewEngine(o.cfg),
		opts:   o,
		wal:    wal,
	}, nil
}

// Durable reports whether the database persists commits to a
// write-ahead log (it was opened with OpenDir).
func (db *DB) Durable() bool { return db.wal != nil }

// Close flushes and closes the write-ahead log of a durable database;
// it reports any sticky log failure, so a caller that checks no other
// commit errors learns here whether everything reached disk. Closing
// an in-memory database is a no-op. The database must not be used
// afterwards.
func (db *DB) Close() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.Close()
}

// Checkpoint forces a durability checkpoint: the current committed
// state is written as the snapshot file and the write-ahead log is
// truncated, bounding the work of the next recovery. Checkpoints also
// happen automatically as the log grows (Durability.CheckpointBytes).
// Errors if the database is not durable.
func (db *DB) Checkpoint() error { return db.store.Checkpoint() }

// WALStatus reports the write-ahead log's current counters (size,
// epochs, records appended and replayed, checkpoints, sticky failure).
// ok is false for an in-memory database.
func (db *DB) WALStatus() (status WALStatus, ok bool) {
	if db.wal == nil {
		return WALStatus{}, false
	}
	return db.wal.Status(), true
}

// Dialect reports the database's dialect.
func (db *DB) Dialect() Dialect { return db.engine.Config().Dialect }

// Result is the outcome of a statement. It holds the engine's result
// table itself, not a copy.
type Result struct {
	t     *table.Table
	stats UpdateStats
}

// Columns returns the output column names.
func (r *Result) Columns() []string { return r.t.Columns() }

// NumRows reports the number of result records.
func (r *Result) NumRows() int { return r.t.Len() }

// Row returns record i as a column-name map.
func (r *Result) Row(i int) map[string]Value { return r.rowMap(r.t.Columns(), i) }

// Rows returns all records as column-name maps.
func (r *Result) Rows() []map[string]Value {
	cols := r.t.Columns()
	out := make([]map[string]Value, r.t.Len())
	for i := range out {
		out[i] = r.rowMap(cols, i)
	}
	return out
}

func (r *Result) rowMap(cols []string, i int) map[string]Value {
	m := make(map[string]Value, len(cols))
	for j, c := range cols {
		m[c] = r.t.Column(j)[i]
	}
	return m
}

// Values returns record i as a slice in column order.
func (r *Result) Values(i int) []Value { return r.t.Values(i) }

// Stats returns the update statistics of the statement.
func (r *Result) Stats() UpdateStats { return r.stats }

// Exec parses and runs a Cypher statement as its own implicit
// transaction (auto-commit). Parameters may be native Go values (see
// value.FromGo) or Values. A failing statement leaves the database
// unchanged. Read-only statements run on a pinned snapshot and do not
// block (or get blocked by) other statements; updating statements
// serialize through the single-writer commit pipeline.
//
// BEGIN/COMMIT/ROLLBACK are session state and are rejected here; use
// DB.Session for explicit transactions.
func (db *DB) Exec(query string, params map[string]any) (*Result, error) {
	res, _, err := db.Session().run(runAutoCommit, query, nil, params)
	return res, err
}

// ExecTable runs a statement against an explicit driving table instead
// of the unit table — the execution mode of the paper's Section 6
// experiments, where "the input table is already populated". Build the
// table with NewTable.
func (db *DB) ExecTable(query string, t *Table, params map[string]any) (*Result, error) {
	res, _, err := db.Session().run(runAutoCommit, query, t.t, params)
	return res, err
}

// Explain returns the streaming operator plan for a statement without
// executing it: a `txn:` header stating the statement's transaction
// boundary (pinned-snapshot reads vs. writer-lock execution), then one
// operator per line, children indented, with `[barrier]` marking
// materialization points (ORDER BY, aggregation) and
// `[barrier:writer-lock]` marking every update clause.
func (db *DB) Explain(query string) (string, error) {
	return db.Session().Explain(query)
}

// Profile runs a statement on the streaming executor and returns its
// result together with the operator plan annotated with observed
// execution counters: per-operator rows and batches, and for barriers
// the peak accounted memory and spill-run count when a memory budget is
// in force. Unlike Explain, Profile EXECUTES the statement — updates
// apply exactly as with Exec.
func (db *DB) Profile(query string, params map[string]any) (*Result, string, error) {
	return db.Session().Profile(query, params)
}

// Parse checks a statement for syntactic and dialect validity without
// executing it.
func (db *DB) Parse(query string) error {
	stmt, err := db.engine.Parse(query)
	if err != nil {
		return err
	}
	return stmt.Err()
}

func convertParams(params map[string]any) (map[string]value.Value, error) {
	if params == nil {
		return nil, nil
	}
	out := make(map[string]value.Value, len(params))
	for k, v := range params {
		cv, err := value.FromGo(v)
		if err != nil {
			return nil, fmt.Errorf("parameter $%s: %w", k, err)
		}
		out[k] = cv
	}
	return out, nil
}

// Table is a driving table for ExecTable.
type Table struct {
	t *table.Table
}

// NewTable creates a driving table with the given columns.
func NewTable(cols ...string) *Table {
	return &Table{t: table.New(cols...)}
}

// Append adds a record; values may be native Go values or Values, and
// nil means null.
func (t *Table) Append(vals ...any) error {
	row := make([]value.Value, len(vals))
	for i, v := range vals {
		cv, err := value.FromGo(v)
		if err != nil {
			return err
		}
		row[i] = cv
	}
	t.t.AppendRow(row...)
	return nil
}

// Len reports the number of records.
func (t *Table) Len() int { return t.t.Len() }

// Reverse reverses the record order (the "bottom-up" evaluation of
// Example 3).
func (t *Table) Reverse() { t.t.Reverse() }

// Permute reorders the records by the given permutation.
func (t *Table) Permute(perm []int) { t.t.Permute(perm) }

// NodeView is a read-only snapshot of a node.
type NodeView struct {
	ID     int64
	Labels []string
	Props  map[string]Value
}

// RelView is a read-only snapshot of a relationship.
type RelView struct {
	ID       int64
	Type     string
	Src, Tgt int64
	Props    map[string]Value
}

// NumNodes reports the number of nodes in the graph.
func (db *DB) NumNodes() int {
	snap := db.store.Acquire()
	defer snap.Release()
	return snap.Graph().NumNodes()
}

// NumRels reports the number of relationships in the graph.
func (db *DB) NumRels() int {
	snap := db.store.Acquire()
	defer snap.Release()
	return snap.Graph().NumRels()
}

// Nodes returns snapshots of all nodes in id order.
func (db *DB) Nodes() []NodeView {
	snap := db.store.Acquire()
	defer snap.Release()
	var out []NodeView
	g := snap.Graph()
	for _, id := range g.NodeIDs() {
		n := g.Node(id)
		nv := NodeView{ID: int64(id), Labels: g.LabelNames(n), Props: g.PropMap(n.Props)}
		out = append(out, nv)
	}
	return out
}

// Rels returns snapshots of all relationships in id order.
func (db *DB) Rels() []RelView {
	snap := db.store.Acquire()
	defer snap.Release()
	var out []RelView
	g := snap.Graph()
	for _, id := range g.RelIDs() {
		r := g.Rel(id)
		rv := RelView{ID: int64(id), Type: g.TypeName(r), Src: int64(r.Src), Tgt: int64(r.Tgt), Props: g.PropMap(r.Props)}
		out = append(out, rv)
	}
	return out
}

// Stats summarizes the graph (node/relationship counts by label/type).
func (db *DB) Stats() graph.Stats {
	snap := db.store.Acquire()
	defer snap.Release()
	return graph.ComputeStats(snap.Graph())
}

// IndexView describes one property index: nodes carrying Label are
// indexed by the value of their Prop property.
type IndexView struct {
	Label string
	Prop  string
}

// Indexes lists the database's property indexes (created with
// `CREATE INDEX ON :Label(prop)`) sorted by label, then property.
func (db *DB) Indexes() []IndexView {
	snap := db.store.Acquire()
	defer snap.Release()
	return indexViews(snap.Graph().Indexes())
}

func indexViews(keys []graph.IndexKey) []IndexView {
	out := make([]IndexView, len(keys))
	for i, k := range keys {
		out[i] = IndexView{Label: k.Label, Prop: k.Prop}
	}
	return out
}

// Epoch reports the database's committed transaction epoch: it
// advances every time a transaction (implicit or explicit) commits a
// change; rolled-back and no-op transactions leave it unchanged, so on
// a durable database every epoch has a log record. Committed deltas
// can be correlated against it by change-feed consumers.
func (db *DB) Epoch() int64 { return db.store.Epoch() }

// CacheStats is a point-in-time snapshot of the engine's statement
// cache and plan slot counters (see DB.CacheStats).
type CacheStats = core.CacheStats

// CacheStats reports the engine's cache counters: statement-cache
// hits/misses (prepared statements shared across all sessions of this
// database) and entries, the template hits among the misses (a text
// that differs from a cached one only in inline property-map literals
// shares that text's statement without being parsed), the hits, misses
// and invalidations of their plan slots, and how many slots of cached
// statements hold a plan. Useful for
// asserting that repeated parameterized queries — from one session or
// many — plan once.
func (db *DB) CacheStats() CacheStats { return db.engine.CacheStats() }

// Statement is a statement parsed and prepared through the database's
// shared statement cache, ready for Session.ExecStatement. A server
// classifies a statement and runs it from one cache lookup through it.
type Statement struct {
	p *core.Prepared
}

// Prepare parses query through the shared statement cache without
// executing it. A statement the dialect refuses prepares; running it
// returns the dialect's error.
func (db *DB) Prepare(query string) (Statement, error) {
	p, err := db.engine.Parse(query)
	if err != nil {
		return Statement{}, err
	}
	return Statement{p: p}, nil
}

// StatementInfo classifies a parsed statement for schedulers (the
// server uses it to route statements through writer-admission
// backpressure without executing them first).
type StatementInfo struct {
	// Updating reports whether the statement contains update clauses
	// (CREATE, MERGE, SET, REMOVE, DELETE, index DDL).
	Updating bool
	// TxnControl is "BEGIN", "COMMIT" or "ROLLBACK" for transaction
	// control statements, and "" for ordinary queries.
	TxnControl string
}

// Info reports whether the statement updates the graph and whether it
// is transaction control.
func (st Statement) Info() StatementInfo {
	info := StatementInfo{Updating: st.p.Updating()}
	if st.p.TxnControl != ast.TxnNone {
		info.TxnControl = st.p.TxnControl.String()
	}
	return info
}

// PinnedSnapshots reports how many reader snapshots of the current
// committed epoch are pinned right now (acquired and not yet
// released). It is a diagnostic for leak checks: a quiescent database
// has zero pinned snapshots.
func (db *DB) PinnedSnapshots() int { return int(db.store.PinnedReaders()) }

// Delta is the net structural change one committed transaction applied:
// which nodes/relationships were created or deleted, which properties
// and labels changed on surviving entities, and which indexes were
// created or dropped, all relative to the previous epoch (see
// graph.Delta for field semantics). Entities created and deleted within
// the same transaction cancel out; rolled-back transactions produce no
// delta at all.
type Delta = graph.Delta

// OnCommit registers fn as a change-feed consumer: after every
// transaction (implicit auto-commit or explicit BEGIN…COMMIT) that
// changed anything, fn is called once with the committed epoch's Delta,
// in strict epoch order, on the committing goroutine. fn must return
// promptly and must not execute updating statements against the same
// database (the writer slot is still held); reads are fine. Use it to
// maintain materialized views incrementally, invalidate caches by
// delta, or ship epochs to a replica.
func (db *DB) OnCommit(fn func(*Delta)) { db.store.OnCommit(fn) }

// Snapshot returns an independent deep copy of the database (same
// dialect and options), useful for comparing semantics side by side.
func (db *DB) Snapshot(opts ...Option) *DB {
	snap := db.store.Acquire()
	defer snap.Release()
	o := db.opts
	for _, opt := range opts {
		opt(&o)
	}
	return &DB{
		store:  graph.NewStore(snap.Graph().Clone()),
		engine: core.NewEngine(o.cfg),
		opts:   o,
	}
}

// SameShape reports whether two databases hold isomorphic graphs
// ("equal up to id renaming", Section 8).
func SameShape(a, b *DB) bool {
	sa := a.store.Acquire()
	defer sa.Release()
	sb := b.store.Acquire()
	defer sb.Release()
	return graph.Isomorphic(sa.Graph(), sb.Graph())
}

// Session is a connection-like handle carrying transaction state.
// Statements run through Exec exactly as on DB (auto-commit, snapshot
// reads) until BEGIN opens an explicit transaction; from then on every
// statement — reads included — runs against the transaction's working
// graph and sees its uncommitted writes, until COMMIT publishes them
// atomically as a new epoch or ROLLBACK discards them. Other sessions
// and DB.Exec keep reading the last committed epoch throughout.
//
// A transaction holds the database's single writer slot: a second
// session's BEGIN (or updating auto-commit statement) blocks until the
// first commits or rolls back. A failing statement inside a
// transaction is rolled back by itself; the transaction stays open.
//
// Sessions are safe for concurrent use, but their point is
// per-connection state: use one session per goroutine.
type Session struct {
	mu sync.Mutex
	cs *core.Session
}

// Session opens a session on the database.
func (db *DB) Session() *Session {
	return &Session{cs: core.NewSession(db.engine, db.store)}
}

// runMode selects what run does with a statement.
type runMode int

const (
	runExec       runMode = iota // execute, transaction control included
	runAutoCommit                // execute, refusing transaction control (DB.Exec)
	runExplain                   // render the plan, execute nothing
	runProfile                   // execute and render the annotated plan
)

// run is the one statement path of DB and Session: it parses query
// through the shared statement cache, converts params, and executes,
// explains or profiles the statement under the session's lock over the
// driving table t0 (nil means the unit table).
func (s *Session) run(mode runMode, query string, t0 *table.Table, params map[string]any) (*Result, string, error) {
	parse := s.cs.Parse
	if mode == runExplain || mode == runProfile {
		// The rendered plan prints the text's own literals.
		parse = s.cs.Engine().ParseOwn
	}
	stmt, err := parse(query)
	if err != nil {
		return nil, "", err
	}
	return s.runPrepared(mode, stmt, t0, params)
}

// runPrepared is run with the statement already prepared.
func (s *Session) runPrepared(mode runMode, stmt *core.Prepared, t0 *table.Table, params map[string]any) (*Result, string, error) {
	if mode == runAutoCommit && stmt.TxnControl != ast.TxnNone {
		return nil, "", fmt.Errorf("%s outside a session: DB.Exec statements auto-commit; open a Session for explicit transactions", stmt.TxnControl)
	}
	vparams, err := convertParams(params)
	if err != nil {
		return nil, "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var res *core.Result
	var planText string
	switch mode {
	case runExplain:
		planText, err = s.cs.Explain(stmt, vparams)
	case runProfile:
		res, planText, err = s.cs.Profile(stmt, vparams)
	default:
		res, err = s.cs.ExecuteWithTable(stmt, vparams, t0)
	}
	if err != nil {
		return nil, "", err
	}
	if res == nil {
		return nil, planText, nil
	}
	return &Result{t: res.Table, stats: res.Stats}, planText, nil
}

// Exec parses and runs one statement in the session, including the
// transaction-control statements BEGIN, COMMIT and ROLLBACK.
func (s *Session) Exec(query string, params map[string]any) (*Result, error) {
	res, _, err := s.run(runExec, query, nil, params)
	return res, err
}

// ExecStatement runs a statement prepared by DB.Prepare in the session,
// as Exec runs its text.
func (s *Session) ExecStatement(st Statement, params map[string]any) (*Result, error) {
	res, _, err := s.runPrepared(runExec, st.p, nil, params)
	return res, err
}

// Begin opens an explicit transaction (equivalent to Exec("BEGIN")).
func (s *Session) Begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cs.Begin()
}

// Commit publishes the open transaction atomically and returns its
// accumulated update statistics.
func (s *Session) Commit() (UpdateStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cs.Commit()
}

// Rollback discards the open transaction.
func (s *Session) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cs.Rollback()
}

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cs.InTransaction()
}

// Explain renders a statement's plan with its transaction boundaries,
// against the graph state the statement would actually run on (the open
// transaction's working graph, or the latest committed snapshot).
func (s *Session) Explain(query string) (string, error) {
	_, planText, err := s.run(runExplain, query, nil, nil)
	return planText, err
}

// Profile runs a statement in the session (inside the open transaction,
// if any) and returns its result together with the operator plan
// annotated with observed execution counters. See DB.Profile.
func (s *Session) Profile(query string, params map[string]any) (*Result, string, error) {
	return s.run(runProfile, query, nil, params)
}

// Stats summarizes the graph state the session's next statement would
// see: inside a transaction, the working graph including its own
// uncommitted writes; otherwise the last committed snapshot.
func (s *Session) Stats() graph.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cs.Stats()
}

// Indexes lists the property indexes the session's next statement would
// see: inside a transaction, the working graph including its own
// uncommitted CREATE/DROP INDEX statements; otherwise the last
// committed snapshot.
func (s *Session) Indexes() []IndexView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return indexViews(s.cs.Indexes())
}

// Close rolls back any open transaction. The session must not be used
// afterwards.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cs.Close()
}

// Explain parses a statement and returns its canonical rendering (the
// AST printed back as Cypher), useful for debugging.
func Explain(query string) (string, error) {
	stmt, err := parser.Parse(query)
	if err != nil {
		return "", err
	}
	return stmt.String(), nil
}

// Save serializes the graph as a JSON snapshot to w. Snapshots preserve
// entity ids exactly and round-trip all property values (including NaN
// and infinities).
func (db *DB) Save(w io.Writer) error {
	snap := db.store.Acquire()
	defer snap.Release()
	return snap.Graph().WriteJSON(w)
}

// SaveFile writes the Save snapshot to path atomically: the snapshot
// is written to a temporary file in path's directory, fsynced, and
// renamed into place, so an interrupted or failing save can never
// truncate or corrupt an existing file at path.
func (db *DB) SaveFile(path string) error {
	snap := db.store.Acquire()
	defer snap.Release()
	return graph.AtomicWriteFile(path, func(w io.Writer) error {
		return snap.Graph().WriteJSON(w)
	})
}

// Load opens a database from a JSON snapshot produced by Save.
func Load(r io.Reader, opts ...Option) (*DB, error) {
	g, err := graph.ReadJSON(r)
	if err != nil {
		return nil, err
	}
	db := Open(opts...)
	db.store = graph.NewStore(g)
	return db, nil
}

// ExportDOT renders the graph in Graphviz DOT format for visualization.
func (db *DB) ExportDOT(w io.Writer, title string) error {
	snap := db.store.Acquire()
	defer snap.Release()
	return snap.Graph().WriteDOT(w, title)
}

// FuncInfo describes one built-in scalar function: its signature, its
// documentation line, and the semantic properties the planner consults
// (purity for constant folding, totality for predicate pushdown,
// determinism for both).
type FuncInfo struct {
	// Name is the canonical (lowercase) function name. Lookup in
	// queries is case-insensitive.
	Name string
	// Sig is the human-readable signature, e.g. "substring(s, start[, len])".
	Sig string
	// Doc is a one-line description.
	Doc string
	// MinArgs and MaxArgs bound the accepted argument count; MaxArgs
	// is -1 for variadic functions.
	MinArgs, MaxArgs int
	// Pure: the result depends only on the arguments (no graph reads,
	// no clock, no randomness).
	Pure bool
	// Total: never returns an evaluation error for any argument values.
	Total bool
	// Deterministic: same arguments always yield the same result.
	Deterministic bool
}

// Functions lists every built-in scalar function in the expression
// registry, sorted by name. Aggregates (count, sum, min, max, avg,
// collect) live in the projection machinery and are not listed here.
func Functions() []FuncInfo {
	defs := expr.Defs()
	out := make([]FuncInfo, len(defs))
	for i, d := range defs {
		out[i] = FuncInfo{
			Name: d.Name, Sig: d.Sig, Doc: d.Doc,
			MinArgs: d.MinArgs, MaxArgs: d.MaxArgs,
			Pure: d.Pure, Total: d.Total, Deterministic: d.Deterministic,
		}
	}
	return out
}
