// Package ast defines the abstract syntax of Cypher statements as used by
// the parser and the execution engine. It covers the union of the Cypher 9
// grammar (Figures 2-5 of the paper) and the revised grammar (Figure 10):
// the parser accepts the superset, and per-dialect validation (package
// core) enforces each grammar's restrictions, so the paper's Section 4.4
// syntax comparison is expressible.
package ast

import (
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/value"
)

// TxnControl distinguishes transaction-control statements from queries.
type TxnControl int

// Transaction-control statement kinds.
const (
	// TxnNone marks an ordinary query statement.
	TxnNone TxnControl = iota
	// TxnBegin is BEGIN: open an explicit transaction.
	TxnBegin
	// TxnCommit is COMMIT: publish the open transaction's writes.
	TxnCommit
	// TxnRollback is ROLLBACK: discard the open transaction's writes.
	TxnRollback
)

func (t TxnControl) String() string {
	switch t {
	case TxnBegin:
		return "BEGIN"
	case TxnCommit:
		return "COMMIT"
	case TxnRollback:
		return "ROLLBACK"
	default:
		return ""
	}
}

// IndexStmt is a schema statement: CREATE INDEX ON :Label(prop) or, with
// Drop set, DROP INDEX ON :Label(prop). Index statements carry no
// clauses; like transaction control they are whole statements of their
// own, but unlike it they mutate the store and therefore run under the
// writer lock with journaled rollback.
type IndexStmt struct {
	Drop  bool
	Label string
	Prop  string
}

// String renders the statement as Cypher.
func (s *IndexStmt) String() string {
	verb := "CREATE"
	if s.Drop {
		verb = "DROP"
	}
	return verb + " INDEX ON :" + s.Label + "(" + s.Prop + ")"
}

// Statement is a top-level Cypher statement: one or more single queries
// combined with UNION [ALL], a transaction-control statement
// (BEGIN/COMMIT/ROLLBACK), or a schema statement (CREATE/DROP INDEX);
// for the latter two Queries is empty.
type Statement struct {
	Queries  []*SingleQuery // len >= 1 when TxnControl == TxnNone and Index == nil
	UnionAll []bool         // len == len(Queries)-1; true for UNION ALL
	// TxnControl is TxnNone for queries; BEGIN/COMMIT/ROLLBACK
	// statements carry the control kind and no queries.
	TxnControl TxnControl
	// Index is non-nil for CREATE INDEX / DROP INDEX statements, which
	// carry no queries.
	Index *IndexStmt
}

// Updating reports whether the statement writes: any clause of any
// query updates the graph, or the statement is a schema statement
// (CREATE/DROP INDEX mutate the store). The session layer uses it to
// route a statement: updating statements run under the writer lock,
// read-only statements stream from a pinned snapshot, transaction-
// control statements update nothing themselves.
func (s *Statement) Updating() bool {
	if s.Index != nil {
		return true
	}
	for _, q := range s.Queries {
		for _, c := range q.Clauses {
			if c.Updating() {
				return true
			}
		}
	}
	return false
}

// SingleQuery is a sequence of clauses.
type SingleQuery struct {
	Clauses []Clause
}

// Clause is implemented by all clause nodes.
type Clause interface {
	clause()
	// Reading reports whether this is a reading clause (MATCH, UNWIND,
	// LOAD CSV); WITH/RETURN are projections, everything else updates.
	Reading() bool
	// Updating reports whether this is an update clause per Figure 3.
	Updating() bool
	String() string
}

// MatchClause is MATCH or OPTIONAL MATCH with an optional WHERE.
type MatchClause struct {
	Optional bool
	Pattern  []*PatternPart
	Where    Expr // may be nil
}

// UnwindClause is UNWIND <expr> AS <var>.
type UnwindClause struct {
	Expr Expr
	Var  string
}

// LoadCSVClause is LOAD CSV [WITH HEADERS] FROM <expr> AS <var>
// [FIELDTERMINATOR <string>].
type LoadCSVClause struct {
	WithHeaders bool
	URL         Expr
	Var         string
	FieldTerm   string // empty means ','
}

// SortItem is one ORDER BY key.
type SortItem struct {
	Expr Expr
	Desc bool
}

// Projection is the shared body of WITH and RETURN.
type Projection struct {
	Distinct bool
	Star     bool
	Items    []*ReturnItem
	OrderBy  []*SortItem
	Skip     Expr // may be nil
	Limit    Expr // may be nil
}

// ReturnItem is an expression with an optional alias.
type ReturnItem struct {
	Expr  Expr
	Alias string // empty means use the expression text
}

// Column is the item's output column: its alias, else the name of the
// variable it returns, else its expression text.
func (it *ReturnItem) Column() string {
	if it.Alias != "" {
		return it.Alias
	}
	if v, ok := it.Expr.(*Variable); ok {
		return v.Name
	}
	return it.Expr.String()
}

// WithClause is WITH <projection> [WHERE <expr>].
type WithClause struct {
	Projection
	Where Expr // may be nil
}

// ReturnClause is RETURN <projection>.
type ReturnClause struct {
	Projection
}

// CreateClause is CREATE <pattern tuple>.
type CreateClause struct {
	Pattern []*PatternPart
}

// MergeForm distinguishes the three surface forms of MERGE.
type MergeForm int

// Merge forms.
const (
	MergeLegacy MergeForm = iota // Cypher 9 MERGE (single pattern, may be undirected)
	MergeAll                     // MERGE ALL (Figure 10)
	MergeSame                    // MERGE SAME (Figure 10)
)

func (f MergeForm) String() string {
	switch f {
	case MergeAll:
		return "MERGE ALL"
	case MergeSame:
		return "MERGE SAME"
	default:
		return "MERGE"
	}
}

// MergeClause is MERGE / MERGE ALL / MERGE SAME, with the optional
// ON CREATE SET / ON MATCH SET sub-clauses of Cypher 9.
type MergeClause struct {
	Form     MergeForm
	Pattern  []*PatternPart // legacy form: exactly one part
	OnCreate []SetItem
	OnMatch  []SetItem
}

// SetClause is SET <set items>.
type SetClause struct {
	Items []SetItem
}

// SetItem is one item of a SET clause (Figure 4).
type SetItem interface {
	setItem()
	String() string
}

// SetProp is SET <expr>.<key> = <expr>.
type SetProp struct {
	Target Expr // must evaluate to a node or relationship
	Key    string
	Value  Expr
}

// SetAllProps is SET <var> = <expr> (replace) or SET <var> += <expr> (merge).
type SetAllProps struct {
	Var   string
	Slot  int // Var's row slot (see Names)
	Value Expr
	Add   bool // true for +=
}

// SetLabels is SET <var>:Label1:Label2.
type SetLabels struct {
	Var    string
	Slot   int // Var's row slot (see Names)
	Labels []string
}

// RemoveClause is REMOVE <remove items>.
type RemoveClause struct {
	Items []RemoveItem
}

// RemoveItem is one item of a REMOVE clause (Figure 4).
type RemoveItem interface {
	removeItem()
	String() string
}

// RemoveProp is REMOVE <expr>.<key>.
type RemoveProp struct {
	Target Expr
	Key    string
}

// RemoveLabels is REMOVE <var>:Label1:Label2.
type RemoveLabels struct {
	Var    string
	Slot   int // Var's row slot (see Names)
	Labels []string
}

// DeleteClause is [DETACH] DELETE <exprs>.
type DeleteClause struct {
	Detach bool
	Exprs  []Expr
}

// ForeachClause is FOREACH (<var> IN <expr> | <update clauses>).
type ForeachClause struct {
	Var  string
	List Expr
	Body []Clause // update clauses only
}

func (*MatchClause) clause()   {}
func (*UnwindClause) clause()  {}
func (*LoadCSVClause) clause() {}
func (*WithClause) clause()    {}
func (*ReturnClause) clause()  {}
func (*CreateClause) clause()  {}
func (*MergeClause) clause()   {}
func (*SetClause) clause()     {}
func (*RemoveClause) clause()  {}
func (*DeleteClause) clause()  {}
func (*ForeachClause) clause() {}

// Reading implements Clause.
func (*MatchClause) Reading() bool   { return true }
func (*UnwindClause) Reading() bool  { return true }
func (*LoadCSVClause) Reading() bool { return true }
func (*WithClause) Reading() bool    { return false }
func (*ReturnClause) Reading() bool  { return false }
func (*CreateClause) Reading() bool  { return false }
func (*MergeClause) Reading() bool   { return false }
func (*SetClause) Reading() bool     { return false }
func (*RemoveClause) Reading() bool  { return false }
func (*DeleteClause) Reading() bool  { return false }
func (*ForeachClause) Reading() bool { return false }

// Updating implements Clause (the update clauses of Figure 3).
func (*MatchClause) Updating() bool   { return false }
func (*UnwindClause) Updating() bool  { return false }
func (*LoadCSVClause) Updating() bool { return false }
func (*WithClause) Updating() bool    { return false }
func (*ReturnClause) Updating() bool  { return false }
func (*CreateClause) Updating() bool  { return true }
func (*MergeClause) Updating() bool   { return true }
func (*SetClause) Updating() bool     { return true }
func (*RemoveClause) Updating() bool  { return true }
func (*DeleteClause) Updating() bool  { return true }
func (*ForeachClause) Updating() bool { return true }

func (*SetProp) setItem()     {}
func (*SetAllProps) setItem() {}
func (*SetLabels) setItem()   {}

func (*RemoveProp) removeItem()   {}
func (*RemoveLabels) removeItem() {}

// Direction of a relationship pattern.
type Direction int

// Relationship pattern directions.
const (
	DirBoth Direction = iota // -[..]-
	DirOut                   // -[..]->
	DirIn                    // <-[..]-
)

// PatternPart is an optionally named path pattern: a sequence of node
// patterns separated by relationship patterns.
type PatternPart struct {
	Var   string // path variable; empty if unnamed
	Slot  int    // Var's row slot (see Names)
	Nodes []*NodePattern
	Rels  []*RelPattern // len == len(Nodes)-1
}

// NodePattern is ( var? :Label* {props}? ).
type NodePattern struct {
	Var    string
	Slot   int // Var's row slot (see Names)
	Labels []string
	Props  Expr // nil, a MapLit, or a Parameter
}

// RelPattern is -[ var? :TYPE|TYPE2* {props}? *min..max? ]-> etc.
type RelPattern struct {
	Var       string
	Slot      int // Var's row slot (see Names)
	Types     []string
	Props     Expr
	Direction Direction
	VarLength bool
	MinHops   int // valid when VarLength; -1 means unbounded below (defaults to 1)
	MaxHops   int // valid when VarLength; -1 means unbounded above
}

// Expr is implemented by all expression nodes.
type Expr interface {
	expr()
	String() string
}

// Literal is a constant value: int64, float64, string, bool, or nil.
type Literal struct {
	Value any
}

// Const is a plan-time constant: the result of evaluating a closed,
// pure, deterministic subtree during the constant-folding pass
// (internal/expr.Fold). The parser never produces one. Unlike Literal
// it carries an already-computed runtime value, so lists, maps and
// folded function results are representable and evaluation is a direct
// return.
type Const struct {
	Val value.Value
}

// Variable references a binding in the driving table, or a binder's
// element (list comprehension, quantifier, reduce).
type Variable struct {
	Name string
	Slot int // Name's row slot (see Names)
}

// Parameter is $name.
type Parameter struct {
	Name string
}

// PropAccess is <expr>.key.
type PropAccess struct {
	Expr Expr
	Key  string
	// KeySym caches Key's interned id for graph.Graph.Resolve; it
	// belongs to the evaluator and is not part of the syntax.
	KeySym atomic.Uint64
}

// Index is <expr>[<expr>] subscripting.
type Index struct {
	Expr  Expr
	Index Expr
}

// Slice is <expr>[from..to].
type Slice struct {
	Expr Expr
	From Expr // may be nil
	To   Expr // may be nil
}

// UnaryOp codes.
type UnaryOpKind int

// Unary operators.
const (
	OpNot UnaryOpKind = iota
	OpNeg
	OpPos
)

// UnaryOp is NOT/-/+ applied to one operand.
type UnaryOp struct {
	Op   UnaryOpKind
	Expr Expr
}

// BinaryOpKind codes.
type BinaryOpKind int

// Binary operators.
const (
	OpAnd BinaryOpKind = iota
	OpOr
	OpXor
	OpEq
	OpNeq
	OpLt
	OpLeq
	OpGt
	OpGeq
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpPow
	OpIn
	OpStartsWith
	OpEndsWith
	OpContains
)

var binOpNames = map[BinaryOpKind]string{
	OpAnd: "AND", OpOr: "OR", OpXor: "XOR", OpEq: "=", OpNeq: "<>",
	OpLt: "<", OpLeq: "<=", OpGt: ">", OpGeq: ">=", OpAdd: "+",
	OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%", OpPow: "^",
	OpIn: "IN", OpStartsWith: "STARTS WITH", OpEndsWith: "ENDS WITH",
	OpContains: "CONTAINS",
}

// BinaryOp is a binary operator application.
type BinaryOp struct {
	Op          BinaryOpKind
	Left, Right Expr
}

// IsNull is <expr> IS [NOT] NULL.
type IsNull struct {
	Expr Expr
	Not  bool
}

// ListLit is [e1, e2, ...].
type ListLit struct {
	Elems []Expr
}

// MapLit is {k1: e1, k2: e2, ...} with deterministic key order.
type MapLit struct {
	Keys []string
	Vals []Expr
}

// FuncCall is name(args...) with optional DISTINCT; Star marks count(*).
type FuncCall struct {
	Name     string // lower-cased
	Distinct bool
	Star     bool
	Args     []Expr
}

// CaseExpr covers both the simple form (Test != nil) and the searched form.
type CaseExpr struct {
	Test  Expr // may be nil
	Whens []Expr
	Thens []Expr
	Else  Expr // may be nil
}

// ListComprehension is [x IN list WHERE pred | proj].
type ListComprehension struct {
	Var   string
	Slot  int // Var's row slot (see Names)
	List  Expr
	Where Expr // may be nil
	Proj  Expr // may be nil (identity)
}

// QuantKind is the kind of a quantifier expression.
type QuantKind int

// Quantifier kinds.
const (
	QuantAll QuantKind = iota
	QuantAny
	QuantNone
	QuantSingle
)

func (q QuantKind) String() string {
	switch q {
	case QuantAll:
		return "all"
	case QuantAny:
		return "any"
	case QuantNone:
		return "none"
	default:
		return "single"
	}
}

// Quantifier is all/any/none/single(x IN list WHERE pred).
type Quantifier struct {
	Kind  QuantKind
	Var   string
	Slot  int // Var's row slot (see Names)
	List  Expr
	Where Expr
}

// Reduce is reduce(acc = init, x IN list | expr).
type Reduce struct {
	Acc     string
	AccSlot int // Acc's row slot (see Names)
	Init    Expr
	Var     string
	Slot    int // Var's row slot (see Names)
	List    Expr
	Expr    Expr
}

func (*Literal) expr()           {}
func (*Const) expr()             {}
func (*Variable) expr()          {}
func (*Parameter) expr()         {}
func (*PropAccess) expr()        {}
func (*Index) expr()             {}
func (*Slice) expr()             {}
func (*UnaryOp) expr()           {}
func (*BinaryOp) expr()          {}
func (*IsNull) expr()            {}
func (*ListLit) expr()           {}
func (*MapLit) expr()            {}
func (*FuncCall) expr()          {}
func (*CaseExpr) expr()          {}
func (*ListComprehension) expr() {}
func (*Quantifier) expr()        {}
func (*Reduce) expr()            {}

// AggregateFuncs lists the aggregation function names recognized by the
// projection machinery.
var AggregateFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
	"collect": true, "stdev": true, "stdevp": true,
}

// ContainsAggregate reports whether the expression tree contains an
// aggregation function call.
func ContainsAggregate(e Expr) bool {
	found := false
	Walk(e, func(x Expr) bool {
		if f, ok := x.(*FuncCall); ok && AggregateFuncs[strings.ToLower(f.Name)] {
			found = true
			return false
		}
		return !found
	})
	return found
}

// Walk visits e and its subexpressions in preorder; if f returns false the
// walk does not descend into the current node's children.
func Walk(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch x := e.(type) {
	case *PropAccess:
		Walk(x.Expr, f)
	case *Index:
		Walk(x.Expr, f)
		Walk(x.Index, f)
	case *Slice:
		Walk(x.Expr, f)
		Walk(x.From, f)
		Walk(x.To, f)
	case *UnaryOp:
		Walk(x.Expr, f)
	case *BinaryOp:
		Walk(x.Left, f)
		Walk(x.Right, f)
	case *IsNull:
		Walk(x.Expr, f)
	case *ListLit:
		for _, el := range x.Elems {
			Walk(el, f)
		}
	case *MapLit:
		for _, v := range x.Vals {
			Walk(v, f)
		}
	case *FuncCall:
		for _, a := range x.Args {
			Walk(a, f)
		}
	case *CaseExpr:
		Walk(x.Test, f)
		for i := range x.Whens {
			Walk(x.Whens[i], f)
			Walk(x.Thens[i], f)
		}
		Walk(x.Else, f)
	case *ListComprehension:
		Walk(x.List, f)
		Walk(x.Where, f)
		Walk(x.Proj, f)
	case *Quantifier:
		Walk(x.List, f)
		Walk(x.Where, f)
	case *Reduce:
		Walk(x.Init, f)
		Walk(x.List, f)
		Walk(x.Expr, f)
	}
}

// Variables returns the free variable names referenced in the expression,
// in first-appearance order, excluding those bound by comprehensions,
// quantifiers or reduce within their bodies.
func Variables(e Expr) []string {
	var out []string
	var visit func(e Expr, bound []string)
	visit = func(e Expr, bound []string) {
		inner := func(names ...string) []string { return append(bound[:len(bound):len(bound)], names...) }
		Walk(e, func(x Expr) bool {
			switch y := x.(type) {
			case *Variable:
				if !slices.Contains(bound, y.Name) && !slices.Contains(out, y.Name) {
					out = append(out, y.Name)
				}
			case *ListComprehension:
				visit(y.List, bound)
				visit(y.Where, inner(y.Var))
				visit(y.Proj, inner(y.Var))
				return false
			case *Quantifier:
				visit(y.List, bound)
				visit(y.Where, inner(y.Var))
				return false
			case *Reduce:
				visit(y.Init, bound)
				visit(y.List, bound)
				visit(y.Expr, inner(y.Acc, y.Var))
				return false
			}
			return true
		})
	}
	visit(e, nil)
	return out
}
