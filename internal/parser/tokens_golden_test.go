package parser

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lexer"
)

// tokenGoldenPath holds the token streams TestTokenStreamsGolden pins.
var tokenGoldenPath = filepath.Join("testdata", "tokens.golden")

// tokenSources returns the inputs whose token streams are pinned, by
// name: every script of the corpus, every cypher block of the language
// reference, each fragment of the parser's pool, seeded joins of those
// fragments, and lexical edge cases (a non-ASCII identifier that
// Unicode case mapping turns into a keyword, escapes, numbers).
func tokenSources(t *testing.T) [][2]string {
	t.Helper()
	var out [][2]string
	scripts, err := filepath.Glob(filepath.Join("..", "..", "scripts", "*.cypher"))
	if err != nil || len(scripts) == 0 {
		t.Fatalf("script corpus: %v (%d files)", err, len(scripts))
	}
	for _, path := range scripts {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]string{"scripts/" + filepath.Base(path), string(raw)})
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "language.md"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	blocks := 0
	for i := 0; i < len(lines); i++ {
		info, ok := strings.CutPrefix(strings.TrimSpace(lines[i]), "```")
		if !ok || !strings.HasPrefix(info, "cypher") {
			continue
		}
		var body []string
		for i++; i < len(lines) && strings.TrimSpace(lines[i]) != "```"; i++ {
			body = append(body, lines[i])
		}
		blocks++
		out = append(out, [2]string{fmt.Sprintf("docs/language.md block %d", blocks), strings.Join(body, "\n")})
	}
	for i, f := range fragments {
		out = append(out, [2]string{fmt.Sprintf("fragment %d", i), f})
	}
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 200; i++ {
		var sb strings.Builder
		for j, n := 0, 1+rng.Intn(12); j < n; j++ {
			sb.WriteString(fragments[rng.Intn(len(fragments))])
			sb.WriteString([]string{" ", "", "\n", "\t"}[rng.Intn(4)])
		}
		out = append(out, [2]string{fmt.Sprintf("join %d", i), sb.String()})
	}
	for i, src := range []string{
		"lımıt LIMIT limit Limit ıs ÉTÉ naïve _x9 x_ü",
		"`a``b` `` $`p q` $0 $_x $ü",
		"0 007 0x1F 0XfF 1.5 .5 1e10 2.5E-3 1e+2 3..4 1.e 12abc",
		`'a\'b' "c\"d" '\n\t\r\b\f\\' '\u00e9x' "ü"`,
		"a/* c */b // tail\nc /*\n*/ d",
		"MATCH (u:User{id:4711})-[:R{w:1.5}]->(v{name:'x'}) RETURN u",
		"'open", "`open", "/* open", "'bad \\q'", "0x", "1e+", "@", "$ ", "'\\u12'",
	} {
		out = append(out, [2]string{fmt.Sprintf("edge %d", i), src})
	}
	return out
}

// dumpTokens renders the token stream of every source, one token a
// line (position, type, literal), or the lexical error that ends it.
func dumpTokens(t *testing.T) string {
	var sb strings.Builder
	for _, s := range tokenSources(t) {
		fmt.Fprintf(&sb, "== %s\n", s[0])
		toks, err := lexer.Tokenize(s[1])
		if err != nil {
			fmt.Fprintf(&sb, "error: %v\n", err)
			continue
		}
		for _, tk := range toks {
			fmt.Fprintf(&sb, "%d:%d %s %q\n", tk.Pos.Line, tk.Pos.Column, tk.Type, tk.Lit)
		}
	}
	return sb.String()
}

// TestTokenStreamsGolden pins the lexer's output byte for byte over the
// script corpus, the language reference, the parser's fragment pool and
// lexical edge cases. Among them, the non-ASCII identifier `lımıt`
// lexes as the keyword LIMIT, as Unicode upper-casing maps ı to I.
func TestTokenStreamsGolden(t *testing.T) {
	want, err := os.ReadFile(tokenGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := dumpTokens(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("token streams differ from %s at line %d:\n got: %s\nwant: %s", tokenGoldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("token streams differ from %s in length: got %d lines, want %d", tokenGoldenPath, len(gl), len(wl))
}
