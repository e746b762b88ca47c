package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/table"
	"repro/internal/value"
)

// Statements generates seeded random Cypher statements for property
// tests, over the graph Setup builds: labels A, B and C, relationship
// types R and S, and nodes with an int `i`, a mixed `p` (int, float,
// string or null) and a string-or-null `s`. Some statements fail on
// purpose: revised SET conflicts, strict DELETE, division by zero and
// negative SKIP/LIMIT. The rest keep their result multiset independent
// of match order wherever the dialect does: SKIP and LIMIT only follow
// an ORDER BY over every returned column, no aggregate collects a list,
// no float is integral (so no 1 = 1.0 tie picks a DISTINCT row), and no
// WHERE atom fails (so conjunct order cannot matter).
type Statements struct {
	rng     *rand.Rand
	revised bool
}

// NewStatements returns a generator for the revised dialect (MERGE ALL
// and MERGE SAME) or the Cypher 9 one (legacy MERGE), seeded by seed.
func NewStatements(seed int64, revised bool) *Statements {
	return &Statements{rng: rand.New(rand.NewSource(seed)), revised: revised}
}

// scope lists the variables in scope, by kind.
type scope struct{ nodes, rels, vals []string }

func (s *Statements) n(k int) int              { return s.rng.Intn(k) }
func (s *Statements) chance(k int) bool        { return s.rng.Intn(k) == 0 }
func (s *Statements) pick(xs ...string) string { return xs[s.rng.Intn(len(xs))] }

// val returns a random int, non-integral float, string or null.
func (s *Statements) val() value.Value {
	switch s.n(4) {
	case 0:
		return value.Int(int64(s.n(4) - 1))
	case 1:
		return value.Float(float64(s.n(4)) + 0.5)
	case 2:
		return value.String(s.pick("a", "ab", "b"))
	}
	return value.NullValue
}

func (s *Statements) lit() string { return s.val().String() }

// Setup returns the statements that build the graph. Label A has 32 to
// 35 nodes, enough for a MATCH anchored on it to run in parallel
// morsels; B and C have 3 or 4.
func (s *Statements) Setup() []string {
	var out []string
	for _, l := range []string{"A", "B", "C"} {
		n := 3 + s.n(2)
		if l == "A" {
			n = 32 + s.n(4)
		}
		var nodes []string
		for i := 0; i < n; i++ {
			labels := l
			if l == "A" && s.chance(3) {
				labels = "A:C"
			}
			nodes = append(nodes, fmt.Sprintf("(:%s{i: %d, p: %s, s: %s})",
				labels, i, s.lit(), s.pick("'a'", "'ab'", "'b'", "null")))
		}
		out = append(out, "CREATE "+strings.Join(nodes, ", "))
	}
	for k := 0; k < 12; k++ {
		out = append(out, fmt.Sprintf("MATCH (x:%s{i: %d}), (y:%s{i: %d}) CREATE (x)-[:%s{w: %d}]->(y)",
			s.pick("A", "B", "C"), s.n(4), s.pick("A", "B", "C"), s.n(4), s.pick("R", "S"), s.n(3)))
	}
	return out
}

func (s *Statements) label() string { return s.pick("", ":A", ":B", ":C") }

// pattern binds a (and possibly r and b) in a MATCH pattern.
func (s *Statements) pattern(sc *scope) string {
	sc.nodes = append(sc.nodes, "a")
	a := "(a" + s.pick(":A", ":B", ":C") + ")"
	switch s.n(6) {
	case 0:
		return a
	case 1:
		sc.nodes = append(sc.nodes, "b")
		return a + ", (b" + s.label() + ")"
	case 2:
		sc.nodes = append(sc.nodes, "b")
		return a + "-[:" + s.pick("R", "S", "R|S") + "*1..2]->(b" + s.label() + ")"
	}
	sc.nodes, sc.rels = append(sc.nodes, "b"), append(sc.rels, "r")
	rel := "[r:" + s.pick("R", "S", "R|S") + "]"
	return a + s.pick("-"+rel+"->", "<-"+rel+"-", "-"+rel+"-") + "(b" + s.label() + ")"
}

// term returns a scalar expression over sc that never fails.
func (s *Statements) term(sc scope) string {
	switch {
	case len(sc.vals) > 0 && s.chance(3):
		return s.pick(sc.vals...)
	case len(sc.rels) > 0 && s.chance(4):
		return s.pick(sc.rels...) + ".w"
	case len(sc.nodes) > 0 && !s.chance(5):
		return s.pick(sc.nodes...) + s.pick(".i", ".p", ".p", ".s")
	}
	return s.lit()
}

// atom returns a ternary predicate over sc that never fails.
func (s *Statements) atom(sc scope) string {
	t := s.term(sc)
	switch s.n(7) {
	case 0:
		return t + s.pick(" IS NULL", " IS NOT NULL")
	case 1:
		return fmt.Sprintf("%s IN [%s, null]", t, s.lit())
	case 2:
		if len(sc.nodes) > 0 {
			n := s.pick(sc.nodes...)
			return s.pick("exists("+n+".p)", n+".s STARTS WITH 'a'")
		}
	case 3:
		return fmt.Sprintf("%s %s %s", t, s.pick("=", "<>", "<", ">="), s.term(sc))
	}
	return fmt.Sprintf("%s %s %s", t, s.pick("=", "<", "<=", ">"), s.lit())
}

// where returns an optional WHERE of atoms combined with NOT, AND, OR
// and XOR.
func (s *Statements) where(sc scope) string {
	if s.chance(3) {
		return ""
	}
	p := s.atom(sc)
	switch s.n(5) {
	case 0:
		return " WHERE NOT (" + p + ")"
	case 1, 2:
		return " WHERE (" + p + ") AND (" + s.atom(sc) + ")"
	case 3:
		return " WHERE (" + p + ") " + s.pick("OR", "XOR") + " (" + s.atom(sc) + ")"
	}
	return " WHERE " + p
}

// agg returns an aggregate over sc that never collects a list.
func (s *Statements) agg(sc scope) string {
	t := s.term(sc)
	switch s.n(4) {
	case 0:
		return "count(*)"
	case 1:
		return "count(" + s.pick("", "DISTINCT ") + t + ")"
	case 2:
		return s.pick("min", "max") + "(" + t + ")"
	}
	if len(sc.nodes) > 0 {
		return s.pick("sum", "avg") + "(" + s.pick(sc.nodes...) + ".i)"
	}
	return "count(*)"
}

// with projects sc to new scalar columns x and y, keeping node a
// unless it aggregates.
func (s *Statements) with(sc *scope) string {
	x, y := s.term(*sc), s.term(*sc)
	kind := s.n(3)
	if kind == 0 {
		sc.nodes, sc.rels, sc.vals = []string{"a"}, nil, []string{"x"}
		return "WITH a, " + x + " AS x"
	}
	out := "WITH DISTINCT " + x + " AS x, " + y + " AS y"
	if kind == 2 {
		out = "WITH " + x + " AS x, " + s.agg(*sc) + " AS y"
	}
	sc.nodes, sc.rels, sc.vals = nil, nil, []string{"x", "y"}
	return out
}

// ret returns a RETURN of columns c0..c<width-1>. Only a total ORDER BY
// precedes SKIP and LIMIT; a few are negative, and some items divide by
// zero.
func (s *Statements) ret(sc scope, width int) string {
	items := make([]string, width)
	order := make([]string, width)
	aggregating := s.chance(3)
	for i := range items {
		e := s.term(sc)
		switch {
		case aggregating && i == width-1:
			e = s.agg(sc)
		case len(sc.nodes) > 0 && s.chance(3):
			e = "10 / (" + s.pick(sc.nodes...) + ".i - 1)"
		}
		items[i] = fmt.Sprintf("%s AS c%d", e, i)
		order[i] = fmt.Sprintf("c%d%s", i, s.pick("", " DESC"))
	}
	out := "RETURN " + s.pick("", "", "DISTINCT ") + strings.Join(items, ", ")
	if s.chance(2) {
		out += " ORDER BY " + strings.Join(order, ", ")
		if s.chance(2) {
			return out + fmt.Sprintf(" SKIP %d LIMIT %d", s.n(2), s.n(4))
		}
	}
	if s.chance(6) {
		out += s.pick(" SKIP -1", " LIMIT -1")
	}
	return out
}

// Read returns a read-only statement: MATCH (var-length, undirected,
// `:R|S`), OPTIONAL MATCH, ternary WHERE atoms (null, IN with null, XOR,
// exists, STARTS WITH), WITH, DISTINCT, aggregates, UNWIND, ORDER BY,
// SKIP, LIMIT, UNION and UNION ALL.
func (s *Statements) Read() string {
	width := 1 + s.n(2)
	q := s.readQuery(width)
	if s.chance(5) {
		q += s.pick(" UNION ", " UNION ALL ") + s.readQuery(width)
	}
	return q
}

func (s *Statements) readQuery(width int) string {
	var sc scope
	var b []string
	if s.chance(4) {
		b = append(b, fmt.Sprintf("UNWIND [%s, %s, null] AS u", s.lit(), s.lit()))
		sc.vals = []string{"u"}
	}
	b = append(b, "MATCH "+s.pattern(&sc)+s.where(sc))
	if s.chance(3) {
		b = append(b, "OPTIONAL MATCH (a)-[o:"+s.pick("R", "S")+"]->(c"+s.label()+")"+s.where(sc))
		sc.nodes, sc.rels = append(sc.nodes, "c"), append(sc.rels, "o")
	}
	if s.chance(3) {
		b = append(b, s.with(&sc)+s.where(sc))
	}
	return strings.Join(append(b, s.ret(sc, width)), " ")
}

// Update returns a MATCH, one update clause of the dialect (CREATE, SET
// with =, += or labels, REMOVE, DELETE, DETACH DELETE, FOREACH, legacy
// MERGE with ON CREATE/ON MATCH or MERGE ALL and MERGE SAME), and
// sometimes a RETURN.
func (s *Statements) Update() string {
	var sc scope
	q := "MATCH " + s.pattern(&sc) + s.where(sc) + " " + s.update(sc)
	if s.chance(2) {
		q += " " + s.ret(scope{nodes: []string{"a"}}, 1+s.n(2))
	}
	return q
}

func (s *Statements) update(sc scope) string {
	t, b := s.term(sc), s.pick(sc.nodes...)
	switch s.n(8) {
	case 0:
		return fmt.Sprintf("CREATE (a)-[:%s{w: %d}]->(:C{i: %s, p: %s})", s.pick("R", "S"), s.n(3), t, s.term(sc))
	case 1:
		return s.pick("SET a.p = "+t, "SET a.q = "+t+", a.p = a.i", "SET a.q = 10 / (a.i - 1)")
	case 2:
		return s.pick("SET a += {q: "+t+", p: "+s.lit()+"}", "SET a = {i: a.i, q: "+t+"}", "SET a:C", "SET a:B:C")
	case 3:
		return s.pick("REMOVE a.p", "REMOVE a:A", "REMOVE a.s, a:C")
	case 4:
		if len(sc.rels) > 0 && s.chance(2) {
			return "DELETE r"
		}
		return s.pick("DELETE ", "DELETE ", "DETACH DELETE ") + b
	case 5:
		return fmt.Sprintf("FOREACH (x IN [%s, %s] | %s)", t, s.lit(),
			s.pick("SET a.q = x", "CREATE (:C{i: 9, p: x})"))
	}
	if !s.revised {
		return fmt.Sprintf("MERGE (a)-[:%s]->(m:C{i: %s}) ON CREATE SET m.p = %s ON MATCH SET m.q = a.i",
			s.pick("R", "S"), t, s.term(sc))
	}
	return s.pick("MERGE ALL", "MERGE SAME") + fmt.Sprintf(" (a)-[:%s]->(:C{i: %s})", s.pick("R", "S"), t)
}

// Table returns a driving table of 3 to 7 rows over cols. The first
// column is mostly a small int key; keys repeat often, so update
// statements over the table meet duplicates and conflicts.
func (s *Statements) Table(cols ...string) *table.Table {
	t := table.New(cols...)
	for r := 3 + s.n(5); r > 0; r-- {
		row := make([]value.Value, len(cols))
		for j := range row {
			row[j] = s.val()
		}
		if s.n(4) > 0 {
			row[0] = value.Int(int64(s.n(4)))
		}
		t.AppendRow(row...)
	}
	return t
}

// TableUpdate returns a SET, REMOVE, DELETE, CREATE or MERGE statement
// over the driving table columns k and, when given, v.
func (s *Statements) TableUpdate(cols ...string) string {
	k, v := cols[0], cols[len(cols)-1]
	var q string
	switch s.n(6) {
	case 0:
		q = fmt.Sprintf("CREATE (:C{i: %s, p: %s})", k, v)
	case 1:
		q = fmt.Sprintf("MATCH (a:A) WHERE a.i %s %s SET a.q = %s", s.pick("=", "<="), k, v)
	case 2:
		q = "MATCH (a:A{i: " + k + "}) " + s.pick("REMOVE a.p", "REMOVE a:A", "SET a += {q: "+v+"}")
	case 3:
		q = "MATCH (a" + s.pick(":A", ":B", ":C") + "{i: " + k + "}) " + s.pick("DELETE a", "DELETE a", "DETACH DELETE a")
	default:
		q = fmt.Sprintf("MERGE (m:C{i: %s}) ON CREATE SET m.p = %s ON MATCH SET m.q = %s", k, v, k)
		if s.revised {
			q = s.pick("MERGE ALL", "MERGE SAME") + s.pick(" (:C{i: "+k+"})", " (:A{i: "+k+"})-[:R]->(:C{p: "+v+"})")
		}
	}
	return q + s.pick(" RETURN "+v+" AS c0, count(*) AS c1", " RETURN "+k+" AS c0", "")
}
