package server

import (
	"testing"

	"repro/cypher"
)

// TestRunLooksUpStatementOnce checks that a RUN consults the statement
// cache once: the lookup that classifies the statement for writer
// admission is the one that executes it. Every kind of lookup counts
// one hit or one miss: a new text, a new text of a cached shape, a
// repeated text, an update, and a text that does not parse.
func TestRunLooksUpStatementOnce(t *testing.T) {
	db := cypher.Open()
	if _, err := db.Exec(`UNWIND range(0, 9) AS i CREATE (:User{id: i, name: 'u' + toString(i)})`, nil); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, db, Options{})
	w := dialWire(t, addr)
	w.hello()
	for _, c := range []struct {
		query, wantType string
	}{
		{`MATCH (u:User{id: 3}) RETURN u.name AS name // q1`, MsgSuccess},
		{`MATCH (u:User{id: 4}) RETURN u.name AS name // q2`, MsgSuccess},
		{`MATCH (u:User{id: 4}) RETURN u.name AS name // q2`, MsgSuccess},
		{`CREATE (:User{id: 10, name: 'u10'})`, MsgSuccess},
		{`MATCH (u:User{id: `, MsgFailure},
	} {
		before := db.CacheStats()
		w.send(&Message{Type: MsgRun, Query: c.query, Pull: -1})
		if got := w.recv(); got.Type != c.wantType {
			t.Fatalf("%s: reply %+v, want %s", c.query, got, c.wantType)
		}
		after := db.CacheStats()
		if n := after.StmtHits + after.StmtMisses - before.StmtHits - before.StmtMisses; n != 1 {
			t.Errorf("%s: %d statement-cache lookups, want 1", c.query, n)
		}
	}
}
