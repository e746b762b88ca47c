package main

// The seeded generator: the social graph, the Zipf key streams, the
// Example-5-shaped driving tables and the per-workload op streams. The
// database never sees the generator — only the statements, parameters
// and driving tables it emits — and every op carries a check of its
// reply against what the generator knows.

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/cypher"
	"repro/internal/table"
	"repro/internal/value"
)

const (
	usersAtScale1  = 50000 // -scale 1: 50k users, 200k FOLLOWS, 50k posts
	followsPerUser = 4
	numCountries   = 16
	followZipfS    = 1.2 // FOLLOWS targets: hubs exist
	keyZipfS       = 1.1 // read and write keys
	loadChunkRows  = 10000
	batchRows      = 1000 // rows per embedded-update-batch driving table
	hop2Limit      = 10
	analyticAgeMin = 30
	analyticTopN   = 20
)

// RNG streams: each consumer draws from its own stream of the seed, so
// adding a consumer does not shift the others.
const (
	streamGraph = iota + 1
	streamBatch
	streamClient // + client index
)

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(stream)))
}

func newZipf(r *rand.Rand, s float64, n int) *rand.Zipf {
	return rand.NewZipf(r, s, 1, uint64(n-1))
}

type sizes struct{ users, follows, posts int }

func sizesFor(scale float64) sizes {
	u := int(math.Round(usersAtScale1 * scale))
	return sizes{users: u, follows: followsPerUser * u, posts: u}
}

func (s sizes) nodes() int { return s.users + s.posts }
func (s sizes) rels() int  { return s.follows + s.posts }

func userName(i int) string  { return fmt.Sprintf("user-%d", i) }
func country(c uint8) string { return fmt.Sprintf("c%02d", c) }

// model is what the generator knows about the graph it generated —
// enough to check every result without asking the database.
type model struct {
	sz          sizes
	age         []uint8
	country     []uint8
	out         [][]int32 // FOLLOWS targets per source, a multiset; no self loops
	followSrc   []int32   // FOLLOWS in generation order
	followTgt   []int32
	postAuthor  []int32
	postScore   []uint8
	followPairs map[uint64]struct{}
}

func pairKey(a, b int) uint64 { return uint64(a)<<32 | uint64(b) }

func generateModel(seed int64, sz sizes) *model {
	r := newRand(seed, streamGraph)
	m := &model{
		sz:          sz,
		age:         make([]uint8, sz.users),
		country:     make([]uint8, sz.users),
		out:         make([][]int32, sz.users),
		followSrc:   make([]int32, sz.follows),
		followTgt:   make([]int32, sz.follows),
		postAuthor:  make([]int32, sz.posts),
		postScore:   make([]uint8, sz.posts),
		followPairs: make(map[uint64]struct{}, sz.follows),
	}
	for i := range m.age {
		m.age[i] = uint8(18 + r.Intn(60))
		m.country[i] = uint8(r.Intn(numCountries))
	}
	tgt := newZipf(r, followZipfS, sz.users)
	for k := range m.followSrc {
		a := r.Intn(sz.users)
		b := int(tgt.Uint64())
		if b == a {
			b = (a + 1) % sz.users
		}
		m.followSrc[k], m.followTgt[k] = int32(a), int32(b)
		m.out[a] = append(m.out[a], int32(b))
		m.followPairs[pairKey(a, b)] = struct{}{}
	}
	for p := range m.postAuthor {
		m.postAuthor[p] = int32(r.Intn(sz.users))
		m.postScore[p] = uint8(r.Intn(100))
	}
	return m
}

// drivingTable is a driving table in generator form; the facade and the
// core layer each want their own table type.
type drivingTable struct {
	cols []string
	rows [][]value.Value
}

func (d *drivingTable) facade() *cypher.Table {
	t := cypher.NewTable(d.cols...)
	for _, row := range d.rows {
		vals := make([]any, len(row))
		for i, v := range row {
			vals[i] = v
		}
		_ = t.Append(vals...) // Values always convert
	}
	return t
}

func (d *drivingTable) core() *table.Table {
	t := table.New(d.cols...)
	for _, row := range d.rows {
		t.AppendRow(row...)
	}
	return t
}

type loadStep struct {
	text  string
	table *drivingTable // nil: unit table
}

var indexStatements = []string{
	`CREATE INDEX ON :User(id)`,
	`CREATE INDEX ON :Post(id)`,
	`CREATE INDEX ON :Visitor(id)`,
	`CREATE INDEX ON :Page(id)`,
}

// chunked cuts n generated rows into driving tables of loadChunkRows for
// one load statement.
func chunked(text string, cols []string, n int, row func(i int) []value.Value) []loadStep {
	var steps []loadStep
	for from := 0; from < n; from += loadChunkRows {
		to := min(from+loadChunkRows, n)
		d := &drivingTable{cols: cols, rows: make([][]value.Value, 0, to-from)}
		for i := from; i < to; i++ {
			d.rows = append(d.rows, row(i))
		}
		steps = append(steps, loadStep{text: text, table: d})
	}
	return steps
}

// userSteps creates the indexes and the users: a graph without
// relationships.
func (m *model) userSteps() []loadStep {
	var steps []loadStep
	for _, q := range indexStatements {
		steps = append(steps, loadStep{text: q})
	}
	return append(steps, chunked(`CREATE (:User{id:id, name:name, age:age, country:country})`,
		[]string{"id", "name", "age", "country"}, m.sz.users, func(i int) []value.Value {
			return []value.Value{value.Int(i), value.String(userName(i)), value.Int(m.age[i]), value.String(country(m.country[i]))}
		})...)
}

// loadSteps is the statement sequence that builds the graph. Join keys
// travel as driving-table columns: a computed inline property is not
// index-seeked at this commit and turns the build quadratic.
func (m *model) loadSteps() []loadStep {
	steps := m.userSteps()
	steps = append(steps, chunked(`MATCH (x:User{id:a}),(y:User{id:b}) CREATE (x)-[:FOLLOWS]->(y)`,
		[]string{"a", "b"}, m.sz.follows, func(k int) []value.Value {
			return []value.Value{value.Int(m.followSrc[k]), value.Int(m.followTgt[k])}
		})...)
	return append(steps, chunked(`MATCH (u:User{id:uid}) CREATE (u)-[:POSTED]->(:Post{id:pid, score:score})`,
		[]string{"pid", "uid", "score"}, m.sz.posts, func(p int) []value.Value {
			return []value.Value{value.Int(p), value.Int(m.postAuthor[p]), value.Int(m.postScore[p])}
		})...)
}

// reply is a statement's outcome in the form the checks read, whichever
// entry point produced it.
type reply struct {
	rows  [][]value.Value
	stats cypher.UpdateStats
}

// op is one generated statement with the check of its reply.
type op struct {
	class  string
	text   string
	params map[string]any
	table  *drivingTable // embedded workloads only
	update bool
	check  func(reply) error
	// dNodes/dRels is the change to the graph's size the op must cause.
	dNodes, dRels int
}

func intAt(row []value.Value, j int) (int, bool) {
	if j >= len(row) {
		return 0, false
	}
	v, ok := row[j].(value.Int)
	return int(v), ok
}

func wantStats(want cypher.UpdateStats) func(reply) error {
	return func(r reply) error {
		if len(r.rows) != 0 {
			return fmt.Errorf("update returned %d rows", len(r.rows))
		}
		if r.stats != want {
			return fmt.Errorf("stats %v, want %v", r.stats, want)
		}
		return nil
	}
}

// ---------------------------------------------------------------------
// Served workloads: reads and small writes
// ---------------------------------------------------------------------

const (
	textPoint = `MATCH (u:User{id:$i}) RETURN u.name`
	textHop1  = `MATCH (u:User{id:$i})-[:FOLLOWS]->(v) RETURN v.id, v.name`
	textHop2  = `MATCH (u:User{id:$i})-[:FOLLOWS]->()-[:FOLLOWS]->(w) RETURN DISTINCT w.id AS id ORDER BY id LIMIT 10`

	textSet         = `MATCH (u:User{id:$i}) SET u.lastSeen=$t`
	textCreatePost  = `MATCH (u:User{id:$i}) CREATE (u)-[:POSTED]->(:Post{id:$p,score:0})`
	textMergeFollow = `MATCH (a:User{id:$i}),(b:User{id:$j}) MERGE SAME (a)-[:FOLLOWS]->(b)`
	textDeletePost  = `MATCH (p:Post{id:$p}) DETACH DELETE p`
)

// clientGen generates one client connection's op stream.
type clientGen struct {
	m       *model
	r       *rand.Rand
	keys    *rand.Zipf
	client  int
	clients int
	seq     int

	// adhoc inlines every literal and tags each text with a unique
	// trailing comment, so no two texts are equal even when Zipf repeats
	// a key and the statement and plan caches always miss.
	adhoc bool
	// Every writeEvery-th op is a small write (0: none) — a fixed share,
	// not a drawn one, so throughput does not vary with the draw. With
	// writers about, reads are checked against the initial graph only as
	// far as concurrent MERGEs of FOLLOWS allow.
	writeEvery int

	// Write-side model, private to this client: it merges only pairs
	// whose source it owns (source mod clients == client) and deletes
	// only posts it created, so its expectations never race.
	merged   map[uint64]struct{}
	myPosts  []int // created and not yet deleted, oldest first
	nextPost int
}

func newClientGen(m *model, seed int64, client, clients int, adhoc bool, writeEvery int) *clientGen {
	r := newRand(seed, streamClient+client)
	return &clientGen{
		m: m, r: r, keys: newZipf(r, keyZipfS, m.sz.users),
		client: client, clients: clients, adhoc: adhoc, writeEvery: writeEvery,
		merged: map[uint64]struct{}{}, nextPost: m.sz.posts + client,
	}
}

func (g *clientGen) next() *op {
	g.seq++
	if g.writeEvery > 0 && g.seq%g.writeEvery == 0 {
		return g.nextWrite()
	}
	return g.nextRead()
}

func (g *clientGen) nextRead() *op {
	i := int(g.keys.Uint64())
	o := &op{params: map[string]any{"i": i}}
	exact := g.writeEvery == 0
	switch x := g.r.Intn(10); {
	case x < 5:
		o.class, o.text = "point", textPoint
		o.check = func(r reply) error {
			if len(r.rows) != 1 || len(r.rows[0]) != 1 || r.rows[0][0] != value.String(userName(i)) {
				return fmt.Errorf("point(%d) returned %v", i, r.rows)
			}
			return nil
		}
	case x < 8:
		o.class, o.text = "hop1", textHop1
		o.check = func(r reply) error { return g.m.checkHop1(i, r.rows, exact) }
	default:
		o.class, o.text = "hop2", textHop2
		o.check = func(r reply) error { return g.m.checkHop2(i, r.rows, exact) }
	}
	if g.adhoc {
		o.params = nil
		o.text = fmt.Sprintf("%s // q%d-%d", strings.Replace(o.text, "$i", fmt.Sprint(i), 1), g.client, g.seq)
	}
	return o
}

func (m *model) checkHop1(i int, rows [][]value.Value, exact bool) error {
	got := make([]int, len(rows))
	for k, row := range rows {
		id, ok := intAt(row, 0)
		if !ok || len(row) != 2 || row[1] != value.String(userName(id)) {
			return fmt.Errorf("hop1(%d) row %v", i, row)
		}
		got[k] = id
	}
	sort.Ints(got)
	want := make([]int, len(m.out[i]))
	for k, b := range m.out[i] {
		want[k] = int(b)
	}
	sort.Ints(want)
	if exact {
		if !slices.Equal(got, want) {
			return fmt.Errorf("hop1(%d) returned %v, want %v", i, got, want)
		}
		return nil
	}
	// Concurrent MERGEs only add FOLLOWS: the initial ones must all be there.
	k := 0
	for _, id := range got {
		if k < len(want) && want[k] == id {
			k++
		}
	}
	if k != len(want) {
		return fmt.Errorf("hop1(%d) returned %v, missing some of %v", i, got, want)
	}
	return nil
}

func (m *model) checkHop2(i int, rows [][]value.Value, exact bool) error {
	if len(rows) > hop2Limit {
		return fmt.Errorf("hop2(%d) returned %d rows", i, len(rows))
	}
	got := make([]int, len(rows))
	for k, row := range rows {
		id, ok := intAt(row, 0)
		if !ok || len(row) != 1 || (k > 0 && id <= got[k-1]) {
			return fmt.Errorf("hop2(%d) rows not distinct ascending ids: %v", i, rows)
		}
		got[k] = id
	}
	if !exact {
		return nil
	}
	seen := map[int]struct{}{}
	for _, mid := range m.out[i] {
		for _, w := range m.out[mid] {
			seen[int(w)] = struct{}{}
		}
	}
	want := make([]int, 0, len(seen))
	for w := range seen {
		want = append(want, w)
	}
	sort.Ints(want)
	want = want[:min(len(want), hop2Limit)]
	if !slices.Equal(got, want) {
		return fmt.Errorf("hop2(%d) returned %v, want %v", i, got, want)
	}
	return nil
}

func (g *clientGen) nextWrite() *op {
	i := int(g.keys.Uint64())
	o := &op{update: true}
	x := g.r.Intn(10)
	if x == 9 && len(g.myPosts) == 0 {
		x = 4 // nothing of ours to delete yet: create instead
	}
	switch {
	case x < 4:
		o.class, o.text = "set", textSet
		o.params = map[string]any{"i": i, "t": g.seq}
		o.check = wantStats(cypher.UpdateStats{PropsSet: 1})
	case x < 7:
		p := g.nextPost
		g.nextPost += g.clients
		g.myPosts = append(g.myPosts, p)
		o.class, o.text = "create_post", textCreatePost
		o.params = map[string]any{"i": i, "p": p}
		o.check = wantStats(cypher.UpdateStats{NodesCreated: 1, RelsCreated: 1})
		o.dNodes, o.dRels = 1, 1
	case x < 9:
		a := i - i%g.clients + g.client
		if a >= g.m.sz.users {
			a = g.client
		}
		b := int(g.keys.Uint64())
		if b == a {
			b = (a + 1) % g.m.sz.users
		}
		o.class, o.text = "merge_follow", textMergeFollow
		o.params = map[string]any{"i": a, "j": b}
		_, inGraph := g.m.followPairs[pairKey(a, b)]
		_, mine := g.merged[pairKey(a, b)]
		var want cypher.UpdateStats
		if !inGraph && !mine {
			g.merged[pairKey(a, b)] = struct{}{}
			want.RelsCreated = 1
			o.dRels = 1
		}
		o.check = wantStats(want)
	default:
		p := g.myPosts[0]
		g.myPosts = g.myPosts[1:]
		o.class, o.text = "delete_post", textDeletePost
		o.params = map[string]any{"p": p}
		o.check = wantStats(cypher.UpdateStats{NodesDeleted: 1, RelsDeleted: 1})
		o.dNodes, o.dRels = -1, -1
	}
	return o
}

// ---------------------------------------------------------------------
// embedded-update-batch: the paper's bulk import, one cycle = six statements
// ---------------------------------------------------------------------

var batchSteps = []struct{ class, text string }{
	{"match_merge_same", `MATCH (u:User{id:uid}),(p:Post{id:pid}) MERGE SAME (u)-[:LIKES{ts:ts}]->(p)`},
	{"merge_all", `MERGE ALL (:Visitor{id:uid,batch:ts})-[:VIEWED]->(:Page{id:pid})`},
	{"merge_same", `MERGE SAME (:Visitor{id:uid,batch:ts})-[:VIEWED]->(:Page{id:pid})`},
	{"set", `MATCH (u:User{id:uid}) SET u.lastBatch=ts, u.touched=coalesce(u.touched,0)+1`},
	{"delete_rel", `MATCH (u:User{id:uid})-[l:LIKES{ts:ts}]->(p:Post{id:pid}) DELETE l`},
	{"detach_delete", `MATCH (v:Visitor{id:uid,batch:ts})-[:VIEWED]->(p:Page) DETACH DELETE v, p`},
}

// batchGen generates import cycles. Every cycle removes what it
// imported, so the graph is the same size at each cycle start.
type batchGen struct {
	m     *model
	r     *rand.Rand
	keys  *rand.Zipf
	rows  int
	cycle int
}

func newBatchGen(m *model, seed int64, rows int) *batchGen {
	r := newRand(seed, streamBatch)
	return &batchGen{m: m, r: r, keys: newZipf(r, keyZipfS, m.sz.users), rows: rows}
}

// nextCycle returns the six statements of one cycle over a fresh
// Example-5-shaped table: ~20 % duplicate rows, ~5 % null pid.
func (g *batchGen) nextCycle() []*op {
	g.cycle++
	ts := value.Int(g.cycle)
	d := &drivingTable{cols: []string{"uid", "pid", "ts"}, rows: make([][]value.Value, 0, g.rows)}
	likes := map[uint64]struct{}{} // distinct (uid,pid), pid not null
	nullUIDs := map[int]struct{}{} // distinct uid among null-pid rows
	uids := map[int]struct{}{}     // distinct uid: SET counts each (node, key) once
	for k := 0; k < g.rows; k++ {
		if k > 0 && g.r.Float64() < 0.2 {
			d.rows = append(d.rows, d.rows[g.r.Intn(k)])
		} else {
			uid := int(g.keys.Uint64())
			var pid value.Value = value.NullValue
			if g.r.Float64() >= 0.05 {
				pid = value.Int(g.r.Intn(g.m.sz.posts))
			}
			d.rows = append(d.rows, []value.Value{value.Int(uid), pid, ts})
		}
		row := d.rows[k]
		uid := int(row[0].(value.Int))
		if pid, ok := row[1].(value.Int); ok {
			likes[pairKey(uid, int(pid))] = struct{}{}
		} else {
			nullUIDs[uid] = struct{}{}
		}
		uids[uid] = struct{}{}
	}
	nLikes, nNull := len(likes), len(nullUIDs)
	// merge_same runs after merge_all created an instance for every
	// row, so only the null-pid rows (null never matches) create: one
	// Visitor per distinct uid, one shared property-less Page.
	sameNodes := 0
	if nNull > 0 {
		sameNodes = nNull + 1
	}
	type want struct {
		stats         cypher.UpdateStats
		dNodes, dRels int
		anyRelStat    bool
	}
	wants := []want{
		{stats: cypher.UpdateStats{RelsCreated: nLikes}, dRels: nLikes},
		{stats: cypher.UpdateStats{NodesCreated: 2 * g.rows, RelsCreated: g.rows}, dNodes: 2 * g.rows, dRels: g.rows},
		// UpdateStats.RelsCreated under-reports for a collapsing
		// whole-pattern MERGE SAME at this commit; the graph's own
		// counts are checked instead.
		{stats: cypher.UpdateStats{NodesCreated: sameNodes}, dNodes: sameNodes, dRels: nNull, anyRelStat: true},
		{stats: cypher.UpdateStats{PropsSet: 2 * len(uids)}},
		{stats: cypher.UpdateStats{RelsDeleted: nLikes}, dRels: -nLikes},
		{stats: cypher.UpdateStats{NodesDeleted: 2*g.rows + sameNodes, RelsDeleted: g.rows + nNull},
			dNodes: -(2*g.rows + sameNodes), dRels: -(g.rows + nNull)},
	}
	ops := make([]*op, len(batchSteps))
	for k, step := range batchSteps {
		w := wants[k]
		ops[k] = &op{class: step.class, text: step.text, table: d, update: true, dNodes: w.dNodes, dRels: w.dRels,
			check: func(r reply) error {
				if w.anyRelStat {
					r.stats.RelsCreated = 0
				}
				return wantStats(w.stats)(r)
			}}
	}
	return ops
}

// ---------------------------------------------------------------------
// embedded-analytic: one pass = six read-only statements over the whole graph
// ---------------------------------------------------------------------

// analyticPass returns the six statements with their exact expected
// results, computed from the model. The pass is the same every time:
// the graph does not change.
func (m *model) analyticPass() []*op {
	anchors := min(500, m.sz.users)
	type agg struct {
		n   int
		sum int
	}
	byCountry := make([]agg, numCountries)
	sameCountry := make([]int, numCountries)
	followers := make([]int, m.sz.users)
	prefixes := map[string]struct{}{}
	reach := map[int32]struct{}{}
	for i := 0; i < m.sz.users; i++ {
		if int(m.age[i]) > analyticAgeMin {
			byCountry[m.country[i]].n++
			byCountry[m.country[i]].sum += int(m.age[i])
		}
		for _, b := range m.out[i] {
			followers[b]++
			if m.country[i] == m.country[b] {
				sameCountry[m.country[i]]++
			}
			if i < anchors {
				for _, w := range m.out[b] {
					reach[w] = struct{}{}
				}
			}
		}
		name := strings.ToUpper(userName(i))
		prefixes[name[:min(6, len(name))]] = struct{}{}
	}
	scoreSum := make([]int, m.sz.users)
	posted := make([]bool, m.sz.users)
	for p, a := range m.postAuthor {
		scoreSum[a] += int(m.postScore[p])
		posted[a] = true
	}

	var groupRows, joinRows [][]value.Value
	for c := 0; c < numCountries; c++ {
		if a := byCountry[c]; a.n > 0 {
			groupRows = append(groupRows, []value.Value{value.String(country(uint8(c))), value.Int(a.n), value.Float(float64(a.sum) / float64(a.n))})
		}
		if sameCountry[c] > 0 {
			joinRows = append(joinRows, []value.Value{value.String(country(uint8(c))), value.Int(sameCountry[c])})
		}
	}
	topN := func(score []int, eligible func(i int) bool) [][]value.Value {
		ids := make([]int, 0, len(score))
		for i := range score {
			if eligible(i) {
				ids = append(ids, i)
			}
		}
		sort.Slice(ids, func(x, y int) bool {
			if score[ids[x]] != score[ids[y]] {
				return score[ids[x]] > score[ids[y]]
			}
			return ids[x] < ids[y]
		})
		ids = ids[:min(len(ids), analyticTopN)]
		rows := make([][]value.Value, len(ids))
		for k, i := range ids {
			rows[k] = []value.Value{value.Int(i), value.Int(score[i])}
		}
		return rows
	}
	var prefixRows [][]value.Value
	for p := range prefixes {
		prefixRows = append(prefixRows, []value.Value{value.String(p)})
	}
	sort.Slice(prefixRows, func(x, y int) bool { return prefixRows[x][0].(value.String) < prefixRows[y][0].(value.String) })

	steps := []struct {
		class, text string
		want        [][]value.Value
	}{
		{"scan_filter_group",
			fmt.Sprintf(`MATCH (u:User) WHERE u.age > %d RETURN u.country AS c, count(*) AS n, avg(u.age) AS a ORDER BY c`, analyticAgeMin),
			groupRows},
		{"join_aggregate",
			`MATCH (u:User)-[:FOLLOWS]->(v:User) WHERE u.country = v.country RETURN u.country AS c, count(*) AS n ORDER BY c`,
			joinRows},
		{"sum_top",
			fmt.Sprintf(`MATCH (u:User)-[:POSTED]->(p:Post) RETURN u.id AS id, sum(p.score) AS s ORDER BY s DESC, id LIMIT %d`, analyticTopN),
			topN(scoreSum, func(i int) bool { return posted[i] })},
		{"follower_top",
			fmt.Sprintf(`MATCH (v:User)<-[:FOLLOWS]-(:User) RETURN v.id AS id, count(*) AS n ORDER BY n DESC, id LIMIT %d`, analyticTopN),
			topN(followers, func(i int) bool { return followers[i] > 0 })},
		{"hop2_count_distinct",
			fmt.Sprintf(`MATCH (u:User)-[:FOLLOWS]->()-[:FOLLOWS]->(w) WHERE u.id < %d RETURN count(DISTINCT w) AS n`, anchors),
			[][]value.Value{{value.Int(len(reach))}}},
		{"expr_distinct",
			`MATCH (u:User) RETURN DISTINCT toUpper(left(u.name,6)) AS k ORDER BY k`,
			prefixRows},
	}
	ops := make([]*op, len(steps))
	for k, s := range steps {
		ops[k] = &op{class: s.class, text: s.text, check: func(r reply) error {
			if err := sameRows(r.rows, s.want); err != nil {
				return fmt.Errorf("%s: %w", s.class, err)
			}
			return nil
		}}
	}
	return ops
}

func sameRows(got, want [][]value.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d is %v, want %v", i, got[i], want[i])
		}
		for j, w := range want[i] {
			g := got[i][j]
			if wf, ok := w.(value.Float); ok {
				gf, ok := g.(value.Float)
				if !ok || math.Abs(float64(gf-wf)) > 1e-9*math.Abs(float64(wf)) {
					return fmt.Errorf("row %d is %v, want %v", i, got[i], want[i])
				}
			} else if g != w {
				return fmt.Errorf("row %d is %v, want %v", i, got[i], want[i])
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Op-stream identity
// ---------------------------------------------------------------------

// hashOps folds everything the database would see of ops — text,
// parameters, driving table — into h, so two streams can be compared.
func hashOps(h io.Writer, ops []*op) {
	for _, o := range ops {
		fmt.Fprintf(h, "%s\x00%s\x00", o.class, o.text)
		keys := make([]string, 0, len(o.params))
		for k := range o.params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%v\x00", k, o.params[k])
		}
		if o.table != nil {
			fmt.Fprintf(h, "%v\x00", o.table.cols)
			for _, row := range o.table.rows {
				fmt.Fprintf(h, "%v\x00", row)
			}
		}
	}
}

// streamHash identifies everything a seed generates for a workload at a
// scale: the load statements and the first n ops of every client.
func streamHash(w *workload, seed int64, scale float64, n int) uint64 {
	h := fnv.New64a()
	m := generateModel(seed, sizesFor(scale))
	for _, s := range m.loadSteps() {
		hashOps(h, []*op{{text: s.text, table: s.table}})
	}
	for _, next := range w.streams(m, seed, 2) {
		for k := 0; k < n; {
			ops := next()
			hashOps(h, ops)
			k += len(ops)
		}
	}
	return h.Sum64()
}
