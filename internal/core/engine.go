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
// Every statement lowers to one streaming operator plan (package plan):
// reading clauses stream batch by batch, and each update clause runs
// behind a barrier that hands the dialect's clause function its whole
// driving table as one columnar plan.Batch. A clause function walks the
// rows the way the read operators do, loading each into one reused slot
// row (see ast.Names), and writes its output rows into a batch over the
// columns the plan gave it (plan.WriteColumns); a clause that adds no
// column returns its input. Seeded property oracles and pinned golden corpora
// in this package's tests specify the results.
//
// A statement executes under a journal: any error rolls the graph back to
// its pre-statement state, giving statements all-or-nothing semantics.
package core

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
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

// Config configures an Engine. Its exported fields are the settings the
// public cypher options map onto; write-ahead logging belongs to the
// store (graph.Recover), not to the engine.
type Config struct {
	// Dialect selects the update semantics.
	Dialect Dialect
	// MergeStrategy overrides the strategy for all MERGE clauses;
	// StrategyFromForm (the default) derives it from the clause form.
	MergeStrategy MergeStrategy
	// ScanOrder applies to legacy update clause processing.
	ScanOrder ScanOrder
	// MatchMode selects relationship isomorphism (default) or
	// homomorphism for pattern matching.
	MatchMode match.Mode
	// MemoryBudget caps, in bytes, the accounted memory the barriers
	// (ORDER BY, aggregation, DISTINCT) may hold per statement before
	// spilling to temp files. Zero (the default) means unlimited: no
	// accounting, no spilling. Results are identical with and without a
	// budget; only peak memory and speed change.
	MemoryBudget int64
	// Parallelism is the worker-pool degree for morsel-driven parallel
	// execution of read-only statements. Zero (the default) means
	// GOMAXPROCS; 1 disables parallelism. Update statements and
	// explicit-transaction pipelines always run serially. Results are
	// identical at any degree: morsel outputs are gathered in morsel
	// order, so parallel plans emit the exact row sequence of a serial
	// run.
	Parallelism int

	// The unexported fields are hooks no public API sets.
	//
	// onPlan, when set, receives the root operator of every statement
	// after execution finishes (Session.Profile renders it; tests assert
	// early-exit visit counts on it).
	onPlan func(plan.Operator)
	// forceAnchor, when set, overrides the planner's anchor choice per
	// pattern part (the planner-equivalence test hook; see
	// match.Matcher.ForceAnchor).
	forceAnchor func(partIdx int, part *ast.PatternPart) int
	// naivePlanner makes every MATCH use the naive left-to-right walk
	// (match.Matcher.DisablePlan), the reference the planner-equivalence
	// tests compare the cost-based planner against.
	naivePlanner bool
	// skipValidation turns dialect grammar validation off, so tests can
	// reach the engine's runtime errors directly.
	skipValidation bool
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
// statement cache shared by every session: query text -> Prepared, the
// parsed AST with the match plan slots of its patterns. It makes
// repeated parameterized queries, from any number of sessions, parse
// and plan once.
type Engine struct {
	cfg   Config
	stmts *stmtCache
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
	return &Engine{cfg: cfg, stmts: newStmtCache()}
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Parse returns the prepared form of query, served from the engine's
// statement cache: all sessions of the engine receive the same
// Prepared, and so share its plan slots, for the same query text. The
// AST must be treated as read-only (every execution path does).
func (e *Engine) Parse(query string) (*Prepared, error) {
	return e.stmts.parse(query)
}

// CacheStats summarizes the engine's statement cache and the plan slots
// of its statements.
type CacheStats struct {
	// StmtHits / StmtMisses count statement-cache lookups by outcome.
	StmtHits, StmtMisses int64
	// Plan carries the plan-slot counters.
	Plan match.PlanStats
}

// CacheStats returns the engine's current cache counters.
func (e *Engine) CacheStats() CacheStats {
	h, m, plans := e.stmts.stats()
	return CacheStats{StmtHits: h, StmtMisses: m, Plan: plans}
}

// Result is the output of a statement: the table produced by RETURN (or
// an empty zero-column table) and the update statistics.
type Result struct {
	Table *table.Table
	Stats UpdateStats
}

// ExecuteStatement runs a statement against g, starting from the unit
// table (the T() of Section 8.1). g is mutated in place; on error it is
// rolled back to its initial state. The statement is prepared on the
// spot, so its plans are not reused by later calls.
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
	if !e.cfg.skipValidation {
		if err := Validate(stmt, e.cfg.Dialect); err != nil {
			return nil, err
		}
	}
	if params == nil {
		params = map[string]value.Value{}
	}
	j := g.BeginJournal()
	res, err := e.executeUnion(g, prepare(stmt, &e.stmts.plans), params, t0)
	if err != nil {
		j.Rollback()
		return nil, err
	}
	// Legacy statements may transit illegal intermediate states
	// (Section 4.2); like Neo4j's commit-time check, the invariant must
	// hold at statement end.
	if err := statementInvariant(j, 0); err != nil {
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
// at every statement boundary (auto-commit and inside transactions). It
// reads only the journal entries the statement recorded after mark
// (graph.Journal.CheckDangling), so it costs what the statement touched,
// not what the graph holds, and reports exactly what the whole-graph
// Graph.Validate would.
func statementInvariant(j *graph.Journal, mark int) error {
	if err := j.CheckDangling(mark); err != nil {
		return fmt.Errorf("statement left the graph inconsistent: %w", err)
	}
	return nil
}

// executeUnion runs a statement at the exchange degree its shape
// allows (see parallelism).
func (e *Engine) executeUnion(g *graph.Graph, p *Prepared, params map[string]value.Value, t0 *table.Table) (*Result, error) {
	return e.executeUnionPar(g, p, params, t0, e.parallelism(p.Statement))
}

// parallelism resolves the exchange degree a statement may use: the
// configured Parallelism (0 = GOMAXPROCS), forced to 1 — fully serial —
// for update statements. Explicit-transaction pipelines pass 1
// explicitly (see Session.executeInTxn): the single-writer baton stays
// untouched.
func (e *Engine) parallelism(stmt *ast.Statement) int {
	if stmt.Updating() {
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

// executeUnionPar lowers the statement to an operator plan with an
// explicit exchange degree and drains it. UNION members run left to
// right under a sequential Union operator, each seeing the graph as
// modified by its predecessors (Section 8.2, "Composition of clauses").
// Update clauses run behind materialization barriers via the
// dialect-selected clause functions (see executor.clause).
func (e *Engine) executeUnionPar(g *graph.Graph, p *Prepared, params map[string]value.Value, t0 *table.Table, par int) (*Result, error) {
	if p.Index != nil {
		return executeIndexStmt(g, p.Index)
	}
	x := e.newExecutor(g, p, params)
	root, err := x.buildPlan(t0, par)
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
func (x *executor) buildPlan(t0 *table.Table, par int) (plan.Operator, error) {
	if t0 != nil {
		// The table may have columns the statement does not mention;
		// they are numbered in a copy, as the prepared table is shared.
		x.ev.Names = maps.Clone(x.ev.Names)
		for _, c := range t0.Columns() {
			x.ev.Names.Slot(c)
		}
	}
	b := &plan.Builder{
		Ev:           x.ev,
		NewMatcher:   x.matcherFor,
		Write:        x.clause,
		MemoryBudget: x.cfg.MemoryBudget,
		Parallelism:  par,
	}
	return b.BuildStatement(x.prep.Statement, t0)
}

// ExplainStatement renders the streaming operator plan for a statement
// without executing it (the cypher-shell EXPLAIN command). The first
// line states the statement's transaction boundary — whether its
// operators stream from a pinned snapshot with no lock held, or run
// under the writer lock with journaled update barriers; the tree below
// tags each update barrier with [barrier:writer-lock].
func (e *Engine) ExplainStatement(g *graph.Graph, stmt *ast.Statement, params map[string]value.Value) (string, error) {
	return e.explainStatement(g, prepare(stmt, &e.stmts.plans), params, false)
}

// explainStatement is ExplainStatement with the session's transaction
// context: inTxn marks an open explicit transaction.
func (e *Engine) explainStatement(g *graph.Graph, p *Prepared, params map[string]value.Value, inTxn bool) (string, error) {
	stmt := p.Statement
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
	if !e.cfg.skipValidation {
		if err := Validate(stmt, e.cfg.Dialect); err != nil {
			return "", err
		}
	}
	if params == nil {
		params = map[string]value.Value{}
	}
	x := e.newExecutor(g, p, params)
	par := e.parallelism(stmt)
	if inTxn {
		par = 1
	}
	root, err := x.buildPlan(nil, par)
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

// executor holds one statement's execution state: the prepared
// statement, the graph, the evaluator (with the parameters) and the
// update stats its update clauses accumulate.
type executor struct {
	cfg   Config
	prep  *Prepared
	graph *graph.Graph
	ev    *expr.Evaluator
	stats UpdateStats
}

func (e *Engine) newExecutor(g *graph.Graph, p *Prepared, params map[string]value.Value) *executor {
	return &executor{cfg: e.cfg, prep: p, graph: g, ev: &expr.Evaluator{Graph: g, Params: params, Names: p.names}}
}

// matcherFor builds a matcher for one of the statement's patterns,
// reading the pattern's plan slot and bound to the given evaluator —
// the executor's own for serial pipelines and update clauses, a
// worker's private clone inside a parallel exchange — with the slots a
// seed row binds on entry.
func (x *executor) matcherFor(ev *expr.Evaluator, parts []*ast.PatternPart, bound []int) *match.Matcher {
	return &match.Matcher{
		Graph:       x.graph,
		Ev:          ev,
		Bound:       bound,
		Mode:        x.cfg.MatchMode,
		Slot:        x.prep.slot(parts),
		DisablePlan: x.cfg.naivePlanner,
		ForceAnchor: x.cfg.forceAnchor,
	}
}

// clause applies one update clause to a driving batch — the
// [[C]](G, T) of the paper, with the graph mutated in place — and
// returns the clause's output batch over cols (see plan.WriteColumns).
// It is the plan's Write hook, and FOREACH applies its body clauses
// through it. SET, REMOVE, DELETE and FOREACH return in itself.
func (x *executor) clause(c ast.Clause, in *plan.Batch, cols []string) (*plan.Batch, error) {
	legacy := x.cfg.Dialect == DialectCypher9
	var err error
	switch cl := c.(type) {
	case *ast.CreateClause:
		return x.execCreate(cl, in, cols)
	case *ast.MergeClause:
		return x.execMerge(cl, in, cols)
	case *ast.SetClause:
		if legacy {
			err = x.execSetLegacy(cl.Items, in)
		} else {
			err = x.execSetRevised(cl.Items, in)
		}
	case *ast.RemoveClause:
		if legacy {
			err = x.execRemoveLegacy(cl, in)
		} else {
			err = x.execRemoveRevised(cl, in)
		}
	case *ast.DeleteClause:
		if legacy {
			err = x.execDeleteLegacy(cl, in)
		} else {
			err = x.execDeleteRevised(cl, in)
		}
	case *ast.ForeachClause:
		err = x.execForeach(cl, in)
	default:
		err = fmt.Errorf("unsupported clause %T", c)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// rowOrder yields the indices of n rows in the configured scan order
// (legacy mode).
func (x *executor) rowOrder(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if x.cfg.ScanOrder == ScanReverse {
		slices.Reverse(idx)
	}
	return idx
}

// rowOver returns a clause function's one row and the slots of cols,
// the columns it loads into it.
func (x *executor) rowOver(cols []string) ([]value.Value, []int) {
	return x.ev.Row(), x.ev.Names.Slots(cols)
}

// applyChanges installs a revised-dialect change set and counts it by
// kind: property writes (a removal writes null), and the label
// additions and removals that changed a node.
func (x *executor) applyChanges(cs *graph.ChangeSet) error {
	props, added, removed, err := cs.Apply(x.graph)
	if err != nil {
		return err
	}
	x.stats.PropsSet += props
	x.stats.LabelsAdded += added
	x.stats.LabelsRemoved += removed
	return nil
}
