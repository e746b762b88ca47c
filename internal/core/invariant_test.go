package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/table"
)

// TestStatementInvariantMatchesValidate drives the generated statements
// of the property oracles through a session, in both dialects, and
// checks the journal-scoped statement-boundary invariant two ways:
//
//   - against its oracle: each statement also runs under a journal on a
//     copy of the published graph, and CheckDangling over the
//     statement's journal must return exactly what the whole-graph
//     Graph.Validate returns;
//   - by its effect: after every statement, succeeded or failed, the
//     published graph — or, inside an explicit transaction, the
//     transaction's working graph — passes Graph.Validate.
//
// Each case runs its statements once auto-committed and once inside
// BEGIN … COMMIT, where the check starts at the statement's journal mark.
func TestStatementInvariantMatchesValidate(t *testing.T) {
	rejected := map[Dialect]int{}
	forEachOracleCase(t, []Dialect{DialectCypher9, DialectRevised}, func(c *oracleCase) {
		e := NewEngine(Config{Dialect: c.d})
		store := graph.NewStore(c.base.Clone())
		sess := NewSession(e, store)
		defer sess.Close()
		clone := func(t0 *table.Table) *table.Table {
			if t0 == nil {
				return nil
			}
			return t0.Clone()
		}
		published := func() *graph.Graph {
			snap := store.Acquire()
			defer snap.Release()
			return snap.Graph()
		}
		for _, inTxn := range []bool{false, true} {
			if inTxn {
				if err := sess.Begin(); err != nil {
					t.Fatal(err)
				}
			}
			for _, s := range c.statements() {
				stmt := prepare(c.parse(t, s.src), e.cfg, nil)
				working := published
				if inTxn {
					working = sess.txn.w.Graph
				}

				g := working().Clone()
				j := g.BeginJournal()
				if _, err := e.executeUnion(g, stmt, nil, clone(s.t0)); err == nil {
					got, want := errText(j.CheckDangling(0)), errText(g.Validate())
					if got != want {
						c.fail(t, "CheckDangling vs Validate", s.src, got, want)
					}
				}
				// Rolling the statement back restores its deleted
				// relationships, adjacency entries included.
				j.Rollback()
				if verr := g.Validate(); verr != nil {
					c.fail(t, "invariant after rollback", s.src, verr.Error(), "a valid graph")
				}

				_, err := sess.ExecuteWithTable(stmt, nil, clone(s.t0))
				if err != nil && strings.Contains(err.Error(), "left the graph inconsistent") {
					rejected[c.d]++
				}
				if verr := working().Validate(); verr != nil {
					c.fail(t, "invariant after the statement", s.src, verr.Error(), "a valid graph")
				}
			}
			if inTxn {
				if _, err := sess.Commit(); err != nil {
					t.Fatal(err)
				}
				if verr := published().Validate(); verr != nil {
					t.Errorf("seed %d, %s: invariant after COMMIT: %v", c.seed, c.d, verr)
				}
			}
		}
	})
	// The legacy dialect's DELETE of a node with relationships must reach
	// the statement-boundary check, or the property is vacuous there.
	t.Logf("statements rejected by the invariant: %v", rejected)
	if rejected[DialectCypher9] == 0 {
		t.Error("no Cypher 9 statement was rejected by the statement-boundary invariant")
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
