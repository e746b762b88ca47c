package cypher

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPlanCacheCrossSessionHits checks that the engine-wide caches are
// genuinely shared: a query planned in one session is answered from the
// statement and plan caches when a different session runs the same
// text. This is the property the server relies on — a thousand
// connections running the same parameterized lookup plan once.
func TestPlanCacheCrossSessionHits(t *testing.T) {
	db := Open()
	for i := 0; i < 64; i++ {
		if _, err := db.Exec(`CREATE (:User{id:$i})`, map[string]any{"i": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	const q = `MATCH (u:User{id:$i}) RETURN u.id AS id`

	s1 := db.Session()
	defer s1.Close()
	if _, err := s1.Exec(q, map[string]any{"i": int64(3)}); err != nil {
		t.Fatal(err)
	}
	after1 := db.CacheStats()
	if after1.Plan.Entries == 0 {
		t.Fatal("first execution cached no plan")
	}

	// A different session, same text, different parameter: both caches
	// must hit — the statement cache on the text, the plan cache on the
	// shared AST identity.
	s2 := db.Session()
	defer s2.Close()
	res, err := s2.Exec(q, map[string]any{"i": int64(7)})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Row(0)["id"].String() != "7" {
		t.Fatalf("wrong result through cached plan: %v", res.Rows())
	}
	after2 := db.CacheStats()
	if after2.StmtHits <= after1.StmtHits {
		t.Errorf("statement cache did not hit cross-session: %+v -> %+v", after1, after2)
	}
	if after2.Plan.Hits <= after1.Plan.Hits {
		t.Errorf("plan cache did not hit cross-session: %+v -> %+v", after1.Plan, after2.Plan)
	}
	if after2.Plan.Entries != after1.Plan.Entries {
		t.Errorf("cross-session re-run grew the plan cache: %+v -> %+v", after1.Plan, after2.Plan)
	}
}

// TestPlanCacheDriftInvalidation checks statistics-based validity: a
// cached plan survives small graph changes but is invalidated and
// re-planned once the anchor estimates drift beyond tolerance (a
// factor of driftFactor past the driftFloor).
func TestPlanCacheDriftInvalidation(t *testing.T) {
	db := Open()
	// Seed enough :A nodes to clear the drift floor, so growth is
	// measured by ratio rather than absorbed by the absolute slack.
	for i := 0; i < 24; i++ {
		if _, err := db.Exec(`CREATE (:A{id:$i})`, map[string]any{"i": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	const q = `MATCH (a:A) RETURN count(a) AS c`
	if _, err := db.Exec(q, nil); err != nil {
		t.Fatal(err)
	}
	before := db.CacheStats().Plan

	// A single extra node moves the graph version but not the estimates
	// materially: the entry must revalidate, not invalidate.
	if _, err := db.Exec(`CREATE (:A{id:1000})`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(q, nil); err != nil {
		t.Fatal(err)
	}
	mid := db.CacheStats().Plan
	if mid.Invalidations != before.Invalidations {
		t.Errorf("tolerable drift invalidated the plan: %+v -> %+v", before, mid)
	}
	if mid.Hits <= before.Hits {
		t.Errorf("version-stale entry was not revalidated as a hit: %+v -> %+v", before, mid)
	}

	// Grow the label cardinality well past driftFactor: the cached plan
	// is stale and must be discarded and re-planned.
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(fmt.Sprintf(`CREATE (:A{id:%d})`, 2000+i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(q, nil); err != nil {
		t.Fatal(err)
	}
	after := db.CacheStats().Plan
	if after.Invalidations <= mid.Invalidations {
		t.Errorf("material drift did not invalidate the plan: %+v -> %+v", mid, after)
	}
}

// TestPlanCacheIndexEpochInvalidation checks that CREATE INDEX and DROP
// INDEX each invalidate cached plans outright: a new index can enable a
// seek anchor (and a drop must disable one) with zero cardinality
// drift, so epoch changes cannot be absorbed by revalidation.
func TestPlanCacheIndexEpochInvalidation(t *testing.T) {
	db := Open()
	for i := 0; i < 32; i++ {
		if _, err := db.Exec(`CREATE (:User{id:$i})`, map[string]any{"i": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	const q = `MATCH (u:User{id:$i}) RETURN u.id AS id`
	run := func() {
		t.Helper()
		res, err := db.Exec(q, map[string]any{"i": int64(5)})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 1 {
			t.Fatalf("want 1 row, got %d", res.NumRows())
		}
	}
	run()
	before := db.CacheStats().Plan

	if _, err := db.Exec(`CREATE INDEX ON :User(id)`, nil); err != nil {
		t.Fatal(err)
	}
	run()
	mid := db.CacheStats().Plan
	if mid.Invalidations <= before.Invalidations {
		t.Errorf("CREATE INDEX did not invalidate the cached plan: %+v -> %+v", before, mid)
	}
	// The re-planned query now seeks the index.
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "index-seek(:User.id)") {
		t.Errorf("plan after CREATE INDEX does not seek:\n%s", plan)
	}

	if _, err := db.Exec(`DROP INDEX ON :User(id)`, nil); err != nil {
		t.Fatal(err)
	}
	run()
	after := db.CacheStats().Plan
	if after.Invalidations <= mid.Invalidations {
		t.Errorf("DROP INDEX did not invalidate the cached plan: %+v -> %+v", mid, after)
	}
}

// TestPlanCachePlansDieWithStatements: a plan lives in its statement's
// cache entry, so distinct texts past the statement cache's bound (1024
// entries) evict their plans with them instead of piling up.
func TestPlanCachePlansDieWithStatements(t *testing.T) {
	db := Open()
	for _, q := range []string{`UNWIND range(0, 2999) AS i CREATE (:User{id: i})`, `CREATE INDEX ON :User(id)`} {
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		res, err := db.Exec(fmt.Sprintf(`MATCH (u:User{id: %d}) RETURN u.id AS id`, i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 1 {
			t.Fatalf("text %d: %d rows, want 1", i, res.NumRows())
		}
	}
	if got := db.CacheStats().Plan.Entries; got > 1024 {
		t.Errorf("Plan.Entries = %d after 3000 distinct texts, want <= 1024 (the statement cache's bound)", got)
	}
}

// TestPlanCacheBoundSetChanges runs one text through ExecTable with
// driving tables that bind none of the pattern's nodes, its left node
// or its right node, in turn, so every call replaces the text's plan.
// Each answer and the final graph must equal a second database's, which
// runs every call under a text of its own and so always plans afresh.
func TestPlanCacheBoundSetChanges(t *testing.T) {
	for _, q := range []string{
		`MATCH (a:P)-[:R]->(b:Q) RETURN a.i AS a, b.i AS b ORDER BY a, b`,
		`MERGE ALL (a:P)-[:R]->(b:Q) RETURN a.i AS a, b.i AS b ORDER BY a, b`,
	} {
		db, ref := Open(), Open()
		for _, d := range []*DB{db, ref} {
			if _, err := d.Exec(`UNWIND range(0, 19) AS i CREATE (:P{i: i})-[:R]->(:Q{i: i}) CREATE (:P{i: 100 + i}), (:Q{i: 200 + i})`, nil); err != nil {
				t.Fatal(err)
			}
		}
		// bind returns a driving table whose column col holds d's nodes
		// labelled label with the given i values.
		bind := func(d *DB, col, label string, is ...int) *Table {
			tbl := NewTable(col)
			for _, i := range is {
				res, err := d.Exec(fmt.Sprintf(`MATCH (n:%s{i: %d}) RETURN n`, label, i), nil)
				if err != nil || res.NumRows() != 1 {
					t.Fatalf("bind %s %d: %v, %v", label, i, res, err)
				}
				if err := tbl.Append(res.Row(0)["n"]); err != nil {
					t.Fatal(err)
				}
			}
			return tbl
		}
		tables := []func(d *DB) *Table{
			func(*DB) *Table {
				tbl := NewTable("x")
				for _, x := range []int{1, 2} {
					if err := tbl.Append(x); err != nil {
						t.Fatal(err)
					}
				}
				return tbl
			},
			func(d *DB) *Table { return bind(d, "a", "P", 3, 100, 101) },
			func(d *DB) *Table { return bind(d, "b", "Q", 7, 200, 201) },
		}
		before := db.CacheStats().Plan
		calls := 0
		for round := 0; round < 3; round++ {
			for _, tbl := range tables {
				got, err := db.ExecTable(q, tbl(db), nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.ExecTable(q+strings.Repeat(" ", calls+1), tbl(ref), nil)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := fmt.Sprint(got.Rows()), fmt.Sprint(want.Rows()); g != w {
					t.Fatalf("%s, call %d:\n got %s\nwant %s", q, calls, g, w)
				}
				calls++
			}
		}
		if !SameShape(db, ref) {
			t.Errorf("%s: final graphs differ", q)
		}
		if after := db.CacheStats().Plan; after.Misses-before.Misses < int64(calls) {
			t.Errorf("%s: %d calls replanned %d times; every call changes the bound names", q, calls, after.Misses-before.Misses)
		}
	}
}

// TestPlanCacheSharedSlotRace: reader sessions run one text whose first
// MATCH fans out as anchor morsels and whose second is a Match stage,
// so every worker reads the text's plan slots, while a writer keeps
// invalidating them: it bulk-loads and deletes an unrelated label past
// the drift tolerance (the unlabelled slots estimate from the node
// count) and creates and drops an index. The writer never touches the
// matched subgraph, so every read must return the same count. Run
// under -race.
func TestPlanCacheSharedSlotRace(t *testing.T) {
	db := Open(WithParallelism(2))
	if _, err := db.Exec(`UNWIND range(0, 63) AS i CREATE (:A{i: i})-[:R]->(:B{i: i})`, nil); err != nil {
		t.Fatal(err)
	}
	const q = `MATCH (a:A)-[:R]->(b) MATCH (b)<-[:R]-(c) RETURN count(*) AS n`
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "anchor-morsels") {
		t.Fatalf("the first MATCH does not fan out as anchor morsels:\n%s", plan)
	}
	read := func(s *Session) error {
		res, err := s.Exec(q, nil)
		if err != nil {
			return err
		}
		if n := res.Row(0)["n"].String(); n != "64" {
			return fmt.Errorf("count = %s, want 64", n)
		}
		return nil
	}
	before := db.CacheStats().Plan
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.Session()
			defer s.Close()
			for !done.Load() {
				if err := read(s); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	w := db.Session()
	defer w.Close()
	for cycle := 0; cycle < 10; cycle++ {
		for _, stmt := range []string{
			`UNWIND range(1, 400) AS i CREATE (:Z{i: i})`,
			`CREATE INDEX ON :Z(i)`,
			`MATCH (z:Z) DELETE z`,
			`DROP INDEX ON :Z(i)`,
		} {
			if _, err := w.Exec(stmt, nil); err != nil {
				t.Fatal(err)
			}
			// A read after every change consults the slots, so each
			// change is seen by at least one consult.
			if err := read(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	done.Store(true)
	wg.Wait()
	if after := db.CacheStats().Plan; after.Invalidations <= before.Invalidations {
		t.Errorf("the writer invalidated no plan: %+v -> %+v", before, after)
	}
}

// TestPlanCacheTemplateFloodKeepsOtherTexts checks that a stream of
// unique texts of one shape, as a client that inlines its literals and
// tags each text sends them, is served by one template: the cache grows
// by the first text and its template, and a parameterized text cached
// before the stream is still a hit after it.
func TestPlanCacheTemplateFloodKeepsOtherTexts(t *testing.T) {
	db := Open()
	if _, err := db.Exec(`UNWIND range(0, 99) AS i CREATE (:User{id: i, name: 'u' + toString(i)})`, nil); err != nil {
		t.Fatal(err)
	}
	const read = `MATCH (u:User{id: $i}) RETURN u.name AS name`
	if _, err := db.Exec(read, map[string]any{"i": 1}); err != nil {
		t.Fatal(err)
	}
	before := db.CacheStats()
	for i := 0; i < 5000; i++ {
		res, err := db.Exec(fmt.Sprintf(`MATCH (u:User{id: %d}) RETURN u.name AS name // q%d`, i%100, i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Values(0)[0]; got.String() != fmt.Sprintf("'u%d'", i%100) {
			t.Fatalf("text %d returned %v", i, got)
		}
	}
	flooded := db.CacheStats()
	if grown := flooded.StmtEntries - before.StmtEntries; grown > 2 {
		t.Errorf("5000 texts of one shape grew the cache by %d entries, want at most 2", grown)
	}
	if served := flooded.TemplateHits - before.TemplateHits; served != 4999 {
		t.Errorf("the template served %d of the 5000 texts, want all but the first", served)
	}
	if _, err := db.Exec(read, map[string]any{"i": 2}); err != nil {
		t.Fatal(err)
	}
	after := db.CacheStats()
	if after.StmtHits != flooded.StmtHits+1 || after.StmtMisses != flooded.StmtMisses || after.StmtEntries != flooded.StmtEntries {
		t.Errorf("the parameterized text was not a cache hit after the flood: %+v then %+v", flooded, after)
	}
}

// TestPlanCacheTemplateConcurrentSessions runs unique texts of one
// shape from several sessions at once, the shape's first text among
// them, so that templates are made, bound and shared concurrently;
// each text must read its own literal's row.
func TestPlanCacheTemplateConcurrentSessions(t *testing.T) {
	db := Open()
	if _, err := db.Exec(`UNWIND range(0, 99) AS i CREATE (:User{id: i, name: 'u' + toString(i)})`, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := db.Session()
			defer s.Close()
			for i := 0; i < 200; i++ {
				id := (c*37 + i) % 100
				res, err := s.Exec(fmt.Sprintf(`MATCH (u:User{id: %d}) RETURN u.name AS name // c%d-%d`, id, c, i), nil)
				if err != nil {
					t.Error(err)
					return
				}
				if res.NumRows() != 1 || res.Values(0)[0].String() != fmt.Sprintf("'u%d'", id) {
					t.Errorf("session %d text %d: got %d rows, want u%d", c, i, res.NumRows(), id)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
