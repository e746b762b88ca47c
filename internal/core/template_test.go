package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/lexer"
	"repro/internal/match"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/token"
	"repro/internal/value"
	"repro/internal/workload"
)

// byteOffset converts a token position (1-based line, and column in
// runes as the lexer counts them) to a byte offset into src.
func byteOffset(src string, pos token.Position) int {
	off := 0
	for line := 1; line < pos.Line; line++ {
		off += strings.IndexByte(src[off:], '\n') + 1
	}
	for col := 1; col < pos.Column; col++ {
		_, w := utf8.DecodeRuneInString(src[off:])
		off += w
	}
	return off
}

// templateOf returns the template the engine keeps for src's shape, or
// nil.
func templateOf(t *testing.T, e *Engine, src string) *template {
	t.Helper()
	toks, err := lexer.Tokenize(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	e.stmts.mu.Lock()
	defer e.stmts.mu.Unlock()
	if el, ok := e.stmts.shapes[string(appendShape(nil, toks))]; ok {
		return el.Value.(*stmtCacheEntry).tmpl
	}
	return nil
}

// respell rewrites src, a text of tmpl's shape, with each bound literal
// token replaced by what with returns for it; the source between the
// token and the next one (space, comments) goes with it.
func respell(t *testing.T, tmpl *template, src string, with func(token.Token) string) string {
	t.Helper()
	toks, err := lexer.Tokenize(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	var sb strings.Builder
	last, j := 0, 0
	for i, tok := range toks {
		if !isLiteralToken(tok.Type) {
			continue
		}
		bound := tmpl.lits[j].bind >= 0
		j++
		if !bound {
			continue
		}
		start, end := byteOffset(src, tok.Pos), byteOffset(src, toks[i+1].Pos)
		sb.WriteString(src[last:start])
		sb.WriteString(with(tok))
		sb.WriteByte(' ')
		last = end
	}
	sb.WriteString(src[last:])
	return sb.String()
}

// absent spells a literal of tok's kind that no generated graph holds.
func absent(tok token.Token) string {
	switch tok.Type {
	case token.Int:
		return "987654321"
	case token.Float:
		return "98765.25"
	}
	return `'absent'`
}

// respelled spells tok's own value another way: an integer in hex, a
// float with an exponent, a string with every rune escaped.
func respelled(t *testing.T) func(tok token.Token) string {
	return func(tok token.Token) string {
		v, err := parser.LiteralValue(tok)
		if err != nil {
			t.Fatalf("%q: %v", tok.Lit, err)
		}
		switch x := v.(type) {
		case value.Int:
			return fmt.Sprintf("0x%X", int64(x))
		case value.Float:
			return strconv.FormatFloat(float64(x), 'e', -1, 64)
		}
		var sb strings.Builder
		sb.WriteByte('"')
		for _, r := range tok.Lit {
			if r <= 0xFFFF {
				fmt.Fprintf(&sb, `\u%04x`, r)
			} else {
				sb.WriteRune(r)
			}
		}
		sb.WriteByte('"')
		return sb.String()
	}
}

// templateCase runs variant, a respelling of a text whose template e
// holds, through that template and through a fresh engine, each on a
// clone of g, and compares the two runs: columns, rows in order, update
// stats, error text and the resulting graph. It reports whether the
// statement failed.
func templateCase(t *testing.T, e *Engine, g *graph.Graph, variant string, params map[string]value.Value, t0 *table.Table) bool {
	t.Helper()
	hits := e.CacheStats().TemplateHits
	shared, err := e.Parse(variant)
	if err != nil {
		t.Fatalf("%s: %v", variant, err)
	}
	if e.CacheStats().TemplateHits != hits+1 || shared.binds == nil {
		t.Fatalf("%s: not served by its shape's template", variant)
	}
	fresh := NewEngine(e.cfg)
	own, err := fresh.Parse(variant)
	if err != nil {
		t.Fatalf("%s: %v", variant, err)
	}
	run := func(eng *Engine, p *Prepared) (string, *graph.Graph) {
		gc := g.Clone()
		var tc *table.Table
		if t0 != nil {
			tc = t0.Clone()
		}
		res, err := eng.execute(gc, p, params, tc)
		got, _ := answers(res, gc, err)
		return got, gc
	}
	got, gotG := run(e, shared)
	want, wantG := run(fresh, own)
	if got != want {
		t.Errorf("%s dialect %s: the shared template's run differs from a fresh engine's\ngot:\n%s\nwant:\n%s", variant, e.cfg.Dialect, got, want)
	}
	if err := graph.Identical(gotG, wantG); err != nil {
		t.Errorf("%s dialect %s: graphs differ: %v", variant, e.cfg.Dialect, err)
	}
	return strings.HasPrefix(want, "error:")
}

// templateVariants primes a fresh cache of e with src and runs its two
// respellings, a literal absent from the graph and the same value
// spelled another way, through templateCase. It returns how many
// variants ran and how many of them failed.
func templateVariants(t *testing.T, e *Engine, g *graph.Graph, src string, t0 *table.Table) (ran, failed int) {
	t.Helper()
	p, err := e.Parse(src)
	if err != nil || p.err != nil || p.TxnControl != ast.TxnNone {
		return 0, 0
	}
	tmpl := templateOf(t, e, src)
	if tmpl == nil {
		t.Fatalf("%s: valid, yet no template", src)
	}
	if tmpl.binds == 0 {
		return 0, 0
	}
	for _, with := range []func(token.Token) string{absent, respelled(t)} {
		if templateCase(t, e, g, respell(t, tmpl, src, with), nil, t0) {
			failed++
		}
		ran++
	}
	return ran, failed
}

// scriptStatements splits a script of the corpus into its statements at
// the top-level semicolons the lexer finds.
func scriptStatements(t *testing.T, src string) []string {
	t.Helper()
	toks, err := lexer.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	start := -1
	for _, tok := range toks {
		switch {
		case tok.Type == token.Semi || tok.Type == token.EOF:
			if start >= 0 {
				out = append(out, strings.TrimSpace(src[start:byteOffset(src, tok.Pos)]))
			}
			start = -1
		case start < 0:
			start = byteOffset(src, tok.Pos)
		}
	}
	return out
}

// TestTemplateEquivalence specifies the statement cache's templates: a
// text served by another text's template answers exactly as the text
// parsed and prepared on its own. Every statement of the script corpus
// (run in order, each on the graph its predecessors built) and of the
// seeded generator, in both dialects, is respelled with its bound
// literals replaced by values absent from the graph, and by their own
// values in hex, with an exponent or fully escaped. Each respelling runs
// through the original's template and through a fresh engine; columns,
// rows in order, update stats, error text and the resulting graph
// (graph.Identical) must agree.
func TestTemplateEquivalence(t *testing.T) {
	scripts, err := filepath.Glob(filepath.Join("..", "..", "scripts", "*.cypher"))
	if err != nil || len(scripts) == 0 {
		t.Fatalf("script corpus: %v", err)
	}
	ran, failed := 0, 0
	for _, d := range []Dialect{DialectCypher9, DialectRevised} {
		for _, path := range scripts {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			g := graph.New()
			for _, src := range scriptStatements(t, string(raw)) {
				n, f := templateVariants(t, NewEngine(Config{Dialect: d}), g, src, nil)
				ran, failed = ran+n, failed+f
				if stmt, err := parser.Parse(src); err == nil && stmt.TxnControl == ast.TxnNone {
					_, _ = NewEngine(Config{Dialect: d}).ExecuteStatement(g, stmt, nil)
				}
			}
		}
		for seed := int64(1); seed <= oracleSeeds; seed++ {
			gen := workload.NewStatements(seed, d == DialectRevised)
			g := graph.New()
			for _, src := range gen.Setup() {
				if _, err := NewEngine(Config{Dialect: d}).ExecuteStatement(g, mustParse(t, src), nil); err != nil {
					t.Fatalf("seed %d setup %s: %v", seed, src, err)
				}
			}
			for i := 0; i < 10; i++ {
				for _, src := range []string{gen.Read(), gen.Update()} {
					n, f := templateVariants(t, NewEngine(Config{Dialect: d}), g, src, nil)
					ran, failed = ran+n, failed+f
				}
				tbl := gen.Table("k", "v")
				n, f := templateVariants(t, NewEngine(Config{Dialect: d}), g, gen.TableUpdate("k", "v"), tbl)
				ran, failed = ran+n, failed+f
			}
		}
	}
	t.Logf("%d respelled statements, %d of them failing", ran, failed)
	if ran < 200 || failed == 0 {
		t.Errorf("%d respelled statements, %d failing: the corpus no longer exercises templates on both paths", ran, failed)
	}
}

// TestTemplateTargetedCases pins the template path's edge cases: a
// user parameter named like a binding position, a statement the dialect
// refuses, and EXPLAIN and PROFILE, which print the text's own literals.
func TestTemplateTargetedCases(t *testing.T) {
	g := graph.New()
	setup := NewEngine(Config{Dialect: DialectRevised})
	for _, src := range []string{`UNWIND range(0, 9) AS i CREATE (:A {i: i, s: 'v' + toString(i)})`} {
		if _, err := setup.ExecuteStatement(g, mustParse(t, src), nil); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("parameter-named-like-a-binding", func(t *testing.T) {
		// Bindings are positions on the statement handle, not
		// parameters: a parameter named 0 or 1 is the user's alone.
		e := NewEngine(Config{Dialect: DialectRevised})
		if _, err := e.Parse("MATCH (n:A {i: 1}) WHERE n.s <> $`0` AND n.i <> $`1` RETURN n.s AS s"); err != nil {
			t.Fatal(err)
		}
		for _, params := range []map[string]value.Value{
			{"0": value.String("v2"), "1": value.Int(7)},
			{"0": value.String("v3"), "1": value.Int(2)},
		} {
			templateCase(t, e, g, "MATCH (n:A {i: 2}) WHERE n.s <> $`0` AND n.i <> $`1` RETURN n.s AS s", params, nil)
		}
	})

	t.Run("parallel-workers-read-bindings", func(t *testing.T) {
		// A worker of an Exchange evaluates the inline map with an
		// evaluator of its own, which must carry the bindings too.
		big := graph.New()
		if _, err := setup.ExecuteStatement(big, mustParse(t, `UNWIND range(0, 99) AS i CREATE (:B {i: i, g: i % 3})`), nil); err != nil {
			t.Fatal(err)
		}
		exchanges := 0
		cfg := Config{Dialect: DialectRevised, Parallelism: 2}
		cfg.onPlan = func(root plan.Operator) {
			if hasExchange(root) {
				exchanges++
			}
		}
		e := NewEngine(cfg)
		if _, err := e.Parse(`MATCH (n:B {g: 1}) RETURN n.i AS i`); err != nil {
			t.Fatal(err)
		}
		templateCase(t, e, big, `MATCH (n:B {g: 2}) RETURN n.i AS i`, nil, nil)
		if exchanges == 0 {
			t.Error("the shared template's run used no Exchange")
		}
	})

	t.Run("invalid-statement-never-shared", func(t *testing.T) {
		e := NewEngine(Config{Dialect: DialectCypher9})
		first, err := e.Parse(`MERGE ALL (n:A {i: 1})`)
		if err != nil || first.Err() == nil {
			t.Fatalf("MERGE ALL under Cypher 9: parse error %v, verdict %v; want a dialect error", err, first.Err())
		}
		before := e.CacheStats()
		p, err := e.Parse(`MERGE ALL (n:A {i: 2})`)
		if err != nil {
			t.Fatal(err)
		}
		after := e.CacheStats()
		if after.StmtMisses != before.StmtMisses+1 || p.binds != nil || templateOf(t, e, `MERGE ALL (n:A {i: 2})`) != nil {
			t.Errorf("an invalid statement's shape was shared (misses %d -> %d)", before.StmtMisses, after.StmtMisses)
		}
		if p.Err() == nil || p.Err().Error() != first.Err().Error() {
			t.Errorf("verdict %v, want %v", p.Err(), first.Err())
		}
	})

	t.Run("explain-and-profile-print-own-literals", func(t *testing.T) {
		const primed = `MATCH (n:A {i: 1}) WHERE n.s <> 'x' RETURN n.s AS s`
		const other = `MATCH (n:A {i: 4}) WHERE n.s <> 'x' RETURN n.s AS s`
		store := graph.NewStore(g.Clone())
		e := NewEngine(Config{Dialect: DialectRevised, Parallelism: 1})
		if _, err := e.Parse(primed); err != nil {
			t.Fatal(err)
		}
		s := NewSession(e, store)
		own, err := e.ParseOwn(other)
		if err != nil {
			t.Fatal(err)
		}
		if own.binds != nil {
			t.Fatal("ParseOwn served a template")
		}
		fresh := NewEngine(Config{Dialect: DialectRevised, Parallelism: 1})
		fp, err := fresh.Parse(other)
		if err != nil {
			t.Fatal(err)
		}
		fs := NewSession(fresh, graph.NewStore(g.Clone()))
		got, err := s.Explain(own, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fs.Explain(fp, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || !strings.Contains(got, "{i: 4}") {
			t.Errorf("EXPLAIN after a template of the shape:\n%s\nwant:\n%s", got, want)
		}
		_, got, err = s.Profile(own, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err = fs.Profile(fp, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || !strings.Contains(got, "{i: 4}") {
			t.Errorf("PROFILE after a template of the shape:\n%s\nwant:\n%s", got, want)
		}
	})
}

// TestStoredStringsOwnTheirBytes checks that nothing a statement
// stores in the graph points into the statement's text. The lexer cuts
// token text out of the source, and a stored string literal, map key,
// label, type or property key sharing those bytes would keep the whole
// text (a batch, a script file) alive as long as the graph holds it.
// The second text is served by the first one's template.
func TestStoredStringsOwnTheirBytes(t *testing.T) {
	e := NewEngine(Config{Dialect: DialectRevised})
	g := graph.New()
	for i, text := range []string{
		`CREATE (:Person {name: 'ann', meta: {k: 'v'}})-[:KNOWS {since: "then"}]->(:Pet {name: 'rex'})`,
		`CREATE (:Person {name: 'bob', meta: {k: 'v'}})-[:KNOWS {since: "now"}]->(:Pet {name: 'tom'})`,
	} {
		text = strings.Clone(text) // bytes of this text alone
		before := e.CacheStats().TemplateHits
		p, err := e.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if served := e.CacheStats().TemplateHits - before; served != int64(i) {
			t.Fatalf("text %d: %d template hits, want %d", i, served, i)
		}
		if _, err := e.execute(g, p, nil, nil); err != nil {
			t.Fatal(err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
		check := func(what, s string) {
			if at := uintptr(unsafe.Pointer(unsafe.StringData(s))); s != "" && at >= lo && at < lo+uintptr(len(text)) {
				t.Errorf("text %d: the stored %s %q points into the statement text", i, what, s)
			}
		}
		var checkValue func(v value.Value)
		checkValue = func(v value.Value) {
			switch x := v.(type) {
			case value.String:
				check("string", string(x))
			case value.Map:
				for k, el := range x {
					check("map key", k)
					checkValue(el)
				}
			}
		}
		checkProps := func(ps graph.Props) {
			for _, p := range ps {
				check("property key", g.SymName(p.Key))
				checkValue(p.Val)
			}
		}
		for _, id := range g.NodeIDs() {
			n := g.Node(id)
			for _, l := range n.Labels {
				check("label", g.SymName(l))
			}
			checkProps(n.Props)
		}
		for _, id := range g.RelIDs() {
			r := g.Rel(id)
			check("type", g.SymName(r.Type))
			checkProps(r.Props)
		}
	}
	if n := len(g.NodeIDs()); n != 4 {
		t.Fatalf("%d nodes, want 4", n)
	}
}

// boundString prints p's statement with its bindings in place of the
// template's bound literals. It writes the shared AST and restores it,
// so it is for tests that own their engine.
func boundString(p *Prepared) string {
	if p.binds == nil {
		return p.String()
	}
	lits := map[*ast.Literal]bool{}
	for _, q := range p.Queries {
		patternLiterals(q.Clauses, lits)
	}
	saved := map[*ast.Literal]value.Value{}
	for l := range lits {
		if l.Bind > 0 {
			saved[l] = l.Val
			l.Val = p.binds[l.Bind-1]
		}
	}
	defer func() {
		for l, v := range saved {
			l.Val = v
		}
	}()
	return p.String()
}

// FuzzTemplateMatchesParse checks the template lookup against the
// parser. The cache is primed with a, then b is looked up. If b parses,
// the statement served for it (by a's template or otherwise) prints,
// with its bindings substituted, exactly as b parsed and prepared on
// its own, under the same verdict. If b does not parse, the lookup
// misses and returns the parser's error byte for byte.
func FuzzTemplateMatchesParse(f *testing.F) {
	for _, pair := range [][2]string{
		{`MATCH (u:User{id:4711}) RETURN u.name AS name`, `MATCH (u:User{id:12}) RETURN u.name AS name // q1`},
		{`MATCH (u:User{id:4711}) RETURN u.name AS name`, `MATCH (u:User{id:99999999999999999999}) RETURN u.name AS name`},
		{`MATCH (u:User{id:1}) RETURN u LIMIT 5`, `MATCH (u:User{id:2}) RETURN u LIMIT 6`},
		{`MATCH (a {k: 'x'})-[r:R {w: 1.5}]->(b {k: "y"}) RETURN a, r, b`, `match (a {k: 'z\'q'})-[r:R {w: 2e3}]->(b {k: "é"}) RETURN a, r, b`},
		{`CREATE (:A {i: 1, s: 'a'})-[:R {w: 0.5}]->(:B {j: 0x1F})`, `CREATE (:A {i: 2, s: 'b'})-[:R {w: 0.25}]->(:B {j: 0777})`},
		{`MERGE SAME (a:A {i: 1})-[:R]->(b:B {i: 2})`, `MERGE SAME (a:A {i: 3})-[:R]->(b:B {i: 08})`},
		{`MATCH (n {v: -1}) RETURN n.v + 1 AS x`, `MATCH (n {v: -2}) RETURN n.v + 2 AS x`},
		{`FOREACH (i IN [1, 2] | CREATE (:N {i: 1}))`, `FOREACH (i IN [1, 2] | CREATE (:N {i: 7}))`},
		{`MATCH (a)-[*1..2]->(b {x: 3}) RETURN b`, `MATCH (a)-[*1..3]->(b {x: 4}) RETURN b`},
		{`UNWIND [1, 2] AS x MATCH (n {x: 'q'}) RETURN x`, `UNWIND [1, 2] AS x MATCH (n {x: 'r'}) RETURN x`},
	} {
		f.Add(pair[0], pair[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		e := NewEngine(Config{Dialect: DialectRevised})
		_, _ = e.Parse(a)
		before := e.CacheStats()
		got, gotErr := e.Parse(b)
		after := e.CacheStats()
		if after.StmtHits+after.StmtMisses != before.StmtHits+before.StmtMisses+1 {
			t.Fatalf("one lookup of %q counted %d", b, after.StmtHits+after.StmtMisses-before.StmtHits-before.StmtMisses)
		}
		stmt, err := parser.Parse(b)
		if err != nil {
			if gotErr == nil || gotErr.Error() != err.Error() || after.StmtHits != before.StmtHits || after.TemplateHits != before.TemplateHits {
				t.Fatalf("%q does not parse (%v); the lookup returned error %v, counters %+v -> %+v", b, err, gotErr, before, after)
			}
			return
		}
		if gotErr != nil {
			t.Fatalf("%q parses, the lookup failed: %v", b, gotErr)
		}
		want := prepare(stmt, e.cfg, new(match.PlanCounts))
		if g, w := boundString(got), want.String(); g != w {
			t.Fatalf("primed with %q, %q is served as\n%s\nwant\n%s", a, b, g, w)
		}
		if (got.Err() == nil) != (want.Err() == nil) || (got.Err() != nil && got.Err().Error() != want.Err().Error()) {
			t.Fatalf("%q: verdict %v, want %v", b, got.Err(), want.Err())
		}
	})
}
