package core

import (
	"strings"
	"testing"

	"repro/internal/ast"
)

// Section 8.2 defines clause composition: [[C S]](G,T) = [[S]]([[C]](G,T)).
// This oracle checks it on generated statements in both dialects: for
// every split of a statement's clauses into a prefix and a suffix,
// running the prefix (closed by RETURN *) and then the suffix on the
// resulting graph, with the prefix's table as the driving table, must
// give the whole statement's table, error text and final graph, and
// stats that sum to the whole statement's.
//
// One split is not a composition in Cypher 9: a legacy statement may
// pass through a graph with dangling relationships, which is checked
// only at statement end (Section 4.2). When the prefix fails that check
// alone, the whole statement must fail too, with its own first error.
func TestClauseCompositionality(t *testing.T) {
	forEachOracleCase(t, []Dialect{DialectCypher9, DialectRevised}, func(c *oracleCase) {
		for _, s := range c.statements() {
			stmt := c.parse(t, s.src)
			if len(stmt.Queries) != 1 {
				continue
			}
			want, _ := c.run(Config{}, stmt, nil, s.t0)
			clauses := stmt.Queries[0].Clauses
			for k := 1; k < len(clauses); k++ {
				prefix := &ast.Statement{Queries: []*ast.SingleQuery{{Clauses: append(clauses[:k:k],
					&ast.ReturnClause{Projection: ast.Projection{Star: true}})}}}
				suffix := &ast.Statement{Queries: []*ast.SingleQuery{{Clauses: clauses[k:]}}}
				eng := NewEngine(Config{Dialect: c.d})
				g := c.base.Clone()
				t0 := s.t0
				if t0 != nil {
					t0 = t0.Clone()
				}
				res, err := eng.ExecuteWithTable(g, prefix, nil, t0)
				if c.d == DialectCypher9 && err != nil && strings.HasPrefix(err.Error(), "statement left the graph inconsistent") {
					if !strings.HasPrefix(want, "error: ") {
						c.fail(t, "prefix "+prefix.String()+" left dangling relationships", s.src, want, "an error")
					}
					continue
				}
				if err == nil {
					var rest *Result
					if rest, err = eng.ExecuteWithTable(g, suffix, nil, res.Table); err == nil {
						rest.Stats.Add(res.Stats)
						res = rest
					}
				}
				if got, _ := answers(res, g, err); got != want {
					c.fail(t, "composed from "+prefix.String()+" ; "+suffix.String(), s.src, got, want)
				}
			}
		}
	})
}
