// Package core implements the execution engine for Cypher statements:
// the clause semantics [[C]] : (G, T) -> (G', T') of the paper's
// Section 8, in two selectable dialects.
//
//   - DialectCypher9 reproduces the legacy Neo4j behaviour the paper
//     critiques in Section 4: update clauses stream over the driving table
//     record by record against a continuously mutated graph. SET applies
//     immediately (Examples 1-2), DELETE tolerates dangling relationships
//     until the end of the statement and silently ignores writes to
//     deleted entities (Section 4.2), and MERGE reads its own writes,
//     making its result depend on record order (Example 3 / Figure 6).
//
//   - DialectRevised implements the redesign of Sections 7-8: SET and
//     REMOVE are two-phase and atomic with conflict detection, DELETE is
//     strict and replaces deleted references by null, and MERGE comes in
//     the MERGE ALL and MERGE SAME forms (plus the intermediate proposals
//     of Section 6 as selectable strategies).
//
// A statement executes under a journal: any error rolls the graph back to
// its pre-statement state, giving statements all-or-nothing semantics.
package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/value"
)

// Dialect selects the update semantics.
type Dialect int

// Dialects.
const (
	// DialectCypher9 is the legacy record-by-record pipeline of Section 3,
	// including the defects catalogued in Section 4.
	DialectCypher9 Dialect = iota
	// DialectRevised is the atomic, deterministic semantics of Section 7.
	DialectRevised
)

func (d Dialect) String() string {
	if d == DialectRevised {
		return "revised"
	}
	return "cypher9"
}

// MergeStrategy selects among the proposals of Section 6 for executing a
// MERGE clause's creating half.
type MergeStrategy int

// Merge strategies (Section 6 of the paper).
const (
	// StrategyFromForm derives the strategy from the clause form:
	// MERGE ALL -> StrategyAtomic, MERGE SAME -> StrategyStrongCollapse,
	// legacy MERGE -> the legacy read-own-writes loop (Cypher 9 only).
	StrategyFromForm MergeStrategy = iota
	// StrategyLegacy forces the Cypher 9 per-record match-or-create loop.
	StrategyLegacy
	// StrategyAtomic creates one pattern instance per failing record
	// ("Atomic MERGE"; the MERGE ALL semantics).
	StrategyAtomic
	// StrategyGrouping creates one instance per group of failing records
	// that agree on all expressions in the pattern ("Grouping MERGE").
	StrategyGrouping
	// StrategyWeakCollapse additionally collapses newly created nodes and
	// relationships that agree on labels/types, properties and pattern
	// position ("Weak Collapse MERGE").
	StrategyWeakCollapse
	// StrategyCollapse lifts the same-position restriction for nodes
	// ("Collapse MERGE").
	StrategyCollapse
	// StrategyStrongCollapse lifts it for relationships as well
	// ("Strong Collapse MERGE"; the MERGE SAME semantics, Definitions 1-2).
	StrategyStrongCollapse
)

func (s MergeStrategy) String() string {
	switch s {
	case StrategyLegacy:
		return "legacy"
	case StrategyAtomic:
		return "atomic"
	case StrategyGrouping:
		return "grouping"
	case StrategyWeakCollapse:
		return "weak-collapse"
	case StrategyCollapse:
		return "collapse"
	case StrategyStrongCollapse:
		return "strong-collapse"
	default:
		return "from-form"
	}
}

// ScanOrder controls the record iteration order of legacy update clauses.
// The revised semantics is order-independent; the legacy MERGE is not
// (Example 3), which this knob makes demonstrable.
type ScanOrder int

// Scan orders.
const (
	ScanForward ScanOrder = iota
	ScanReverse
)

// Executor selects the evaluation strategy for a statement's reading
// pipeline. Update clauses execute identically under both: the
// streaming executor inserts a materialization barrier before every
// update clause (and before ORDER BY/aggregation), so the paper's
// record-order-dependent legacy semantics and the revised two-phase
// semantics are preserved bit-for-bit.
type Executor int

// Executors.
const (
	// ExecStreaming (the default) lowers the statement to a tree of
	// cursor-driven operators (package plan) pulled in columnar batches
	// of up to plan.BatchTarget rows: per-row map allocation and
	// coroutine switches amortize over a batch, and LIMIT/EXISTS still
	// exit early (consumers bound how many rows they request).
	ExecStreaming Executor = iota
	// ExecMaterializing is the original clause-at-a-time interpreter
	// that builds every intermediate table in full. It is retained as
	// the executable specification the streaming executor is tested
	// against (golden equivalence), and for A/B benchmarking.
	ExecMaterializing
)

func (e Executor) String() string {
	if e == ExecMaterializing {
		return "materializing"
	}
	return "streaming"
}

// PlannerMode selects how MATCH enumeration is planned.
type PlannerMode int

// Planner modes.
const (
	// PlannerCostBased (the default) picks scan anchors, part order and
	// walk direction from the graph's incrementally maintained
	// statistics, and prunes with pushed WHERE conjuncts.
	PlannerCostBased PlannerMode = iota
	// PlannerLeftToRight is the pre-planner enumeration: every part
	// starts at its first node and parts run in written order. Kept as
	// the reference the planner-equivalence tests compare against, for
	// A/B benchmarking (B11/B12/B21) and for bisecting planner issues;
	// the public cypher API does not expose it.
	PlannerLeftToRight
)

func (p PlannerMode) String() string {
	if p == PlannerLeftToRight {
		return "left-to-right"
	}
	return "cost-based"
}

// Config configures an Engine.
type Config struct {
	Dialect Dialect
	// MergeStrategy overrides the strategy for all MERGE clauses;
	// StrategyFromForm (the default) derives it from the clause form.
	MergeStrategy MergeStrategy
	// ScanOrder applies to legacy update clause processing.
	ScanOrder ScanOrder
	// MatchMode selects relationship isomorphism (default) or
	// homomorphism for pattern matching.
	MatchMode match.Mode
	// SkipValidation disables dialect grammar validation (used by tests
	// that exercise runtime errors directly).
	SkipValidation bool
	// Executor selects the streaming (default) or materializing
	// evaluation strategy.
	Executor Executor
	// Planner selects cost-based match planning (default) or the naive
	// left-to-right enumeration. Both executors honour it, so golden
	// cross-executor comparisons hold in either mode.
	Planner PlannerMode
	// MemoryBudget caps, in bytes, the accounted memory the streaming
	// executors' barriers (ORDER BY, aggregation, DISTINCT) may hold per
	// statement before spilling to temp files. Zero (the default) means
	// unlimited: no accounting, no spilling. Results are identical with
	// and without a budget; only peak memory and speed change.
	MemoryBudget int64
	// Parallelism is the worker-pool degree for morsel-driven parallel
	// execution of read-only statements on the streaming executor. Zero
	// (the default) means GOMAXPROCS; 1 disables parallelism. Update
	// statements, explicit-transaction pipelines and the materializing
	// executor always run serially.
	// Results are identical at any degree: morsel outputs are gathered
	// in morsel order, so parallel plans emit the exact row sequence of
	// a serial run.
	Parallelism int
	// Durability configures the write-ahead log when the database is
	// opened against a data directory (cypher.OpenDir /
	// cypher.WithDurability). The engine itself does not consult it —
	// the store's commit path does — but it is carried here so one
	// Config describes a session end to end.
	Durability graph.Durability

	// onPlan, when set, receives the root operator of every streaming
	// statement after execution finishes (tests use it to assert
	// early-exit visit counts).
	onPlan func(plan.Operator)
	// forceAnchor, when set, overrides the planner's anchor choice per
	// pattern part (the planner-equivalence test hook; see
	// match.Matcher.ForceAnchor).
	forceAnchor func(partIdx int, part *ast.PatternPart) int
}

// UpdateStats counts the effects of a statement.
type UpdateStats struct {
	NodesCreated  int
	NodesDeleted  int
	RelsCreated   int
	RelsDeleted   int
	PropsSet      int
	LabelsAdded   int
	LabelsRemoved int
}

// Add accumulates other into s.
func (s *UpdateStats) Add(other UpdateStats) {
	s.NodesCreated += other.NodesCreated
	s.NodesDeleted += other.NodesDeleted
	s.RelsCreated += other.RelsCreated
	s.RelsDeleted += other.RelsDeleted
	s.PropsSet += other.PropsSet
	s.LabelsAdded += other.LabelsAdded
	s.LabelsRemoved += other.LabelsRemoved
}

// String renders the stats compactly.
func (s UpdateStats) String() string {
	return fmt.Sprintf("+%dn -%dn +%dr -%dr %dp +%dl -%dl",
		s.NodesCreated, s.NodesDeleted, s.RelsCreated, s.RelsDeleted,
		s.PropsSet, s.LabelsAdded, s.LabelsRemoved)
}

// Engine executes statements. Beyond the configuration it carries the
// engine-wide caches shared by every session: the statement cache
// (query text -> parsed AST) and the cross-statement plan cache —
// together they make repeated parameterized queries, from any number
// of sessions, parse and plan exactly once.
type Engine struct {
	cfg   Config
	stmts *stmtCache
	plans *match.PlanCache
}

// spillSweepOnce guards the once-per-process orphan sweep below.
var spillSweepOnce sync.Once

// NewEngine returns an engine with the given configuration. The first
// engine of the process also sweeps spill temp files orphaned by an
// earlier killed process out of the spill directory (live processes'
// files are left alone; see plan.SweepSpillOrphans).
func NewEngine(cfg Config) *Engine {
	spillSweepOnce.Do(func() {
		_, _ = plan.SweepSpillOrphans(plan.SpillDir())
	})
	return &Engine{cfg: cfg, stmts: newStmtCache(), plans: match.NewPlanCache()}
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Parse returns the parsed form of query, served from the engine's
// statement cache. All sessions of the engine receive the same AST for
// the same query text — the identity the shared plan cache keys on.
// The AST must be treated as read-only (every execution path does).
func (e *Engine) Parse(query string) (*ast.Statement, error) {
	return e.stmts.parse(query)
}

// PlanCache returns the engine's shared cross-statement plan cache
// (counters for tests, benchmarks and server statistics).
func (e *Engine) PlanCache() *match.PlanCache { return e.plans }

// CacheStats summarizes the engine-wide caches: the statement (parse)
// cache and the shared match-plan cache.
type CacheStats struct {
	// StmtHits / StmtMisses count statement-cache lookups by outcome.
	StmtHits, StmtMisses int64
	// Plan carries the shared plan cache's counters.
	Plan match.PlanCacheStats
}

// CacheStats returns the engine's current cache counters.
func (e *Engine) CacheStats() CacheStats {
	h, m := e.stmts.stats()
	return CacheStats{StmtHits: h, StmtMisses: m, Plan: e.plans.Stats()}
}

// Result is the output of a statement: the table produced by RETURN (or
// an empty zero-column table) and the update statistics.
type Result struct {
	Table *table.Table
	Stats UpdateStats
}

// ExecuteStatement runs a statement against g, starting from the unit
// table (the T() of Section 8.1). g is mutated in place; on error it is
// rolled back to its initial state.
func (e *Engine) ExecuteStatement(g *graph.Graph, stmt *ast.Statement, params map[string]value.Value) (*Result, error) {
	return e.ExecuteWithTable(g, stmt, params, nil)
}

// ExecuteWithTable runs a statement with an explicit initial driving
// table (nil means the unit table). This entry point is what the
// Section 6 experiments use: the paper's MERGE examples start from
// "an input table [that] is already populated".
func (e *Engine) ExecuteWithTable(g *graph.Graph, stmt *ast.Statement, params map[string]value.Value, t0 *table.Table) (*Result, error) {
	if stmt.TxnControl != ast.TxnNone {
		return nil, fmt.Errorf("%s requires a session (transaction control is session state)", stmt.TxnControl)
	}
	if !e.cfg.SkipValidation {
		if err := Validate(stmt, e.cfg.Dialect); err != nil {
			return nil, err
		}
	}
	if params == nil {
		params = map[string]value.Value{}
	}
	j := g.BeginJournal()
	res, err := e.executeUnion(g, stmt, params, t0)
	if err != nil {
		j.Rollback()
		return nil, err
	}
	// Legacy statements may transit illegal intermediate states
	// (Section 4.2); like Neo4j's commit-time check, the invariant must
	// hold at statement end.
	if err := statementInvariant(g); err != nil {
		j.Rollback()
		return nil, err
	}
	j.Commit()
	return res, nil
}

// executeIndexStmt applies a CREATE/DROP INDEX schema statement to the
// working graph. CREATE is idempotent (re-running a setup script is
// harmless); DROP of a missing index is an error (it catches typos, and
// statement rollback makes the failure side-effect free). Both are
// journaled by the graph, so transaction rollback undoes them.
func executeIndexStmt(g *graph.Graph, is *ast.IndexStmt) (*Result, error) {
	if is.Drop {
		if !g.DropIndex(is.Label, is.Prop) {
			return nil, fmt.Errorf("DROP INDEX: no index on :%s(%s)", is.Label, is.Prop)
		}
	} else {
		g.CreateIndex(is.Label, is.Prop)
	}
	return &Result{Table: table.New()}, nil
}

// statementInvariant is the commit-time dangling-relationship check run
// at every statement boundary (auto-commit and inside transactions).
func statementInvariant(g *graph.Graph) error {
	if err := g.Validate(); err != nil {
		return fmt.Errorf("statement left the graph inconsistent: %w", err)
	}
	return nil
}

// executeUnion applies UNION members left to right: each query sees the
// graph as modified by its predecessors, and the output tables are
// unioned (Section 8.2, "Composition of clauses"). The streaming
// executor expresses the same composition as a sequential Union
// operator; the materializing executor loops over the members.
func (e *Engine) executeUnion(g *graph.Graph, stmt *ast.Statement, params map[string]value.Value, t0 *table.Table) (*Result, error) {
	return e.executeUnionPar(g, stmt, params, t0, e.parallelism(stmt))
}

// parallelism resolves the exchange degree a statement may use: the
// configured Parallelism (0 = GOMAXPROCS), forced to 1 — fully serial —
// for update statements and for any executor other than the streaming
// one. Explicit-transaction pipelines pass 1 explicitly (see
// Session.executeInTxn): the single-writer baton stays untouched.
func (e *Engine) parallelism(stmt *ast.Statement) int {
	if e.cfg.Executor != ExecStreaming || stmt.Updating() {
		return 1
	}
	p := e.cfg.Parallelism
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// executeUnionPar is executeUnion with an explicit exchange degree.
func (e *Engine) executeUnionPar(g *graph.Graph, stmt *ast.Statement, params map[string]value.Value, t0 *table.Table, par int) (*Result, error) {
	if stmt.Index != nil {
		return executeIndexStmt(g, stmt.Index)
	}
	if e.cfg.Executor != ExecMaterializing {
		return e.executeStreaming(g, stmt, params, t0, par)
	}
	var out *table.Table
	stats := UpdateStats{}
	for i, q := range stmt.Queries {
		init := table.Unit()
		if t0 != nil {
			init = t0.Clone()
		}
		x := &executor{
			cfg:    e.cfg,
			plans:  e.plans,
			graph:  g,
			params: params,
			ev:     &expr.Evaluator{Graph: g, Params: params},
		}
		t, err := x.run(q.Clauses, init)
		if err != nil {
			return nil, err
		}
		stats.Add(x.stats)
		if i == 0 {
			out = t
			continue
		}
		if err := unionCompatible(out, t); err != nil {
			return nil, err
		}
		if err := out.AppendTable(t); err != nil {
			return nil, err
		}
	}
	if len(stmt.Queries) > 1 {
		// Plain UNION deduplicates; UNION ALL anywhere keeps duplicates
		// (matching SQL/Cypher: mixed unions apply the strictest form
		// pairwise; we simplify to "any plain UNION dedupes", documented).
		allAll := true
		for _, a := range stmt.UnionAll {
			if !a {
				allAll = false
			}
		}
		if !allAll {
			out.Distinct()
		}
	}
	return &Result{Table: out, Stats: stats}, nil
}

func unionCompatible(a, b *table.Table) error {
	ca, cb := a.Columns(), b.Columns()
	if len(ca) != len(cb) {
		return fmt.Errorf("UNION requires the same return columns (%v vs %v)", ca, cb)
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return fmt.Errorf("UNION requires the same return columns (%v vs %v)", ca, cb)
		}
	}
	return nil
}

// executeStreaming lowers the statement to a streaming operator plan
// and drains it. Update clauses run behind materialization barriers via
// the same per-clause functions as the materializing executor, so both
// dialects' update semantics are identical across executors.
func (e *Engine) executeStreaming(g *graph.Graph, stmt *ast.Statement, params map[string]value.Value, t0 *table.Table, par int) (*Result, error) {
	x := &executor{
		cfg:    e.cfg,
		plans:  e.plans,
		graph:  g,
		params: params,
		ev:     &expr.Evaluator{Graph: g, Params: params},
	}
	root, err := x.buildPlan(stmt, t0, par)
	if err != nil {
		return nil, err
	}
	if e.cfg.onPlan != nil {
		defer e.cfg.onPlan(root)
	}
	out, err := plan.Collect(root)
	if err != nil {
		return nil, err
	}
	return &Result{Table: out, Stats: x.stats}, nil
}

// buildPlan constructs the statement's operator tree. The builder's
// Write hook closes over this executor, so update barriers apply the
// dialect-selected clause functions and accumulate stats here.
func (x *executor) buildPlan(stmt *ast.Statement, t0 *table.Table, par int) (plan.Operator, error) {
	b := &plan.Builder{
		Ev:         x.ev,
		NewMatcher: x.matcherFor,
		Write: func(c ast.Clause, in *table.Table) (*table.Table, error) {
			return x.clause(c, in)
		},
		MemoryBudget: x.cfg.MemoryBudget,
		Parallelism:  par,
	}
	return b.BuildStatement(stmt, t0)
}

// ExplainStatement renders the streaming operator plan for a statement
// without executing it (the cypher-shell EXPLAIN command). The first
// line states the statement's transaction boundary — whether its
// operators stream from a pinned snapshot with no lock held, or run
// under the writer lock with journaled update barriers; the tree below
// tags each update barrier with [barrier:writer-lock].
func (e *Engine) ExplainStatement(g *graph.Graph, stmt *ast.Statement, params map[string]value.Value) (string, error) {
	return e.explainStatement(g, stmt, params, false)
}

// explainStatement is ExplainStatement with the session's transaction
// context: inTxn marks an open explicit transaction.
func (e *Engine) explainStatement(g *graph.Graph, stmt *ast.Statement, params map[string]value.Value, inTxn bool) (string, error) {
	if stmt.TxnControl != ast.TxnNone {
		return fmt.Sprintf("%s — transaction control, no operator plan", stmt.TxnControl), nil
	}
	if stmt.Index != nil {
		op := "CreateIndex"
		if stmt.Index.Drop {
			op = "DropIndex"
		}
		header := "txn: auto-commit write — schema statement, writer lock held for the statement, journaled"
		if inTxn {
			header = "txn: explicit (open transaction) — schema statement applies to the transaction's working graph, journaled"
		}
		return fmt.Sprintf("%s\n%s[barrier:writer-lock](:%s(%s))", header, op, stmt.Index.Label, stmt.Index.Prop), nil
	}
	if !e.cfg.SkipValidation {
		if err := Validate(stmt, e.cfg.Dialect); err != nil {
			return "", err
		}
	}
	if params == nil {
		params = map[string]value.Value{}
	}
	x := &executor{
		cfg:    e.cfg,
		plans:  e.plans,
		graph:  g,
		params: params,
		ev:     &expr.Evaluator{Graph: g, Params: params},
	}
	par := e.parallelism(stmt)
	if inTxn {
		par = 1
	}
	root, err := x.buildPlan(stmt, nil, par)
	if err != nil {
		return "", err
	}
	defer root.Close()
	var header string
	switch {
	case inTxn:
		header = "txn: explicit (open transaction) — operators run on the transaction's working graph, writer lock held until COMMIT/ROLLBACK"
	case stmt.Updating():
		header = "txn: auto-commit write — writer lock held for the statement; [barrier:writer-lock] operators apply journaled deltas"
	default:
		header = "txn: auto-commit read-only — streams from a pinned snapshot, no locks held"
	}
	if e.cfg.MemoryBudget > 0 {
		header += fmt.Sprintf("\nmem: budget=%d bytes per statement — barriers beyond it spill to temp files", e.cfg.MemoryBudget)
	}
	return header + "\n" + plan.Explain(root), nil
}

// executor runs one single query's clause list.
type executor struct {
	cfg    Config
	plans  *match.PlanCache // engine's shared plan cache (nil in bare-engine tests)
	graph  *graph.Graph
	params map[string]value.Value
	ev     *expr.Evaluator
	stats  UpdateStats
}

func (x *executor) matcher() *match.Matcher { return x.matcherFor(x.ev) }

// matcherFor builds a matcher bound to the given evaluator — the
// executor's own for serial pipelines, a worker's private clone inside
// a parallel exchange.
func (x *executor) matcherFor(ev *expr.Evaluator) *match.Matcher {
	return &match.Matcher{
		Graph:       x.graph,
		Ev:          ev,
		Mode:        x.cfg.MatchMode,
		Cache:       x.plans,
		DisablePlan: x.cfg.Planner == PlannerLeftToRight,
		ForceAnchor: x.cfg.forceAnchor,
	}
}

// run folds the clause semantics over the driving table, left to right
// (the materializing executor: every clause builds its full output
// table before the next one starts).
func (x *executor) run(clauses []ast.Clause, t *table.Table) (*table.Table, error) {
	var err error
	returned := false
	for _, c := range clauses {
		t, err = x.clause(c, t)
		if err != nil {
			return nil, err
		}
		if _, ok := c.(*ast.ReturnClause); ok {
			returned = true
		}
	}
	if !returned {
		// A query without RETURN outputs no table.
		return table.New(), nil
	}
	return t, nil
}

func (x *executor) clause(c ast.Clause, t *table.Table) (*table.Table, error) {
	switch cl := c.(type) {
	case *ast.MatchClause:
		return x.execMatch(cl, t)
	case *ast.UnwindClause:
		return x.execUnwind(cl, t)
	case *ast.LoadCSVClause:
		return x.execLoadCSV(cl, t)
	case *ast.WithClause:
		return x.execProjection(&cl.Projection, cl.Where, t)
	case *ast.ReturnClause:
		return x.execProjection(&cl.Projection, nil, t)
	case *ast.CreateClause:
		return x.execCreate(cl, t)
	case *ast.SetClause:
		if x.cfg.Dialect == DialectCypher9 {
			return x.execSetLegacy(cl.Items, t)
		}
		return x.execSetRevised(cl.Items, t)
	case *ast.RemoveClause:
		if x.cfg.Dialect == DialectCypher9 {
			return x.execRemoveLegacy(cl, t)
		}
		return x.execRemoveRevised(cl, t)
	case *ast.DeleteClause:
		if x.cfg.Dialect == DialectCypher9 {
			return x.execDeleteLegacy(cl, t)
		}
		return x.execDeleteRevised(cl, t)
	case *ast.MergeClause:
		return x.execMerge(cl, t)
	case *ast.ForeachClause:
		return x.execForeach(cl, t)
	default:
		return nil, fmt.Errorf("unsupported clause %T", c)
	}
}

// rowOrder yields row indices in the configured scan order (legacy mode).
func (x *executor) rowOrder(t *table.Table) []int {
	idx := make([]int, t.Len())
	for i := range idx {
		idx[i] = i
	}
	if x.cfg.ScanOrder == ScanReverse {
		for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
			idx[i], idx[j] = idx[j], idx[i]
		}
	}
	return idx
}
