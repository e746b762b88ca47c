package lexer

import (
	"strings"
	"testing"

	"repro/internal/token"
)

func types(t *testing.T, src string) []token.Type {
	t.Helper()
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	out := make([]token.Type, 0, len(toks))
	for _, tk := range toks {
		out = append(out, tk.Type)
	}
	return out
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	for _, src := range []string{"MATCH", "match", "Match", "mAtCh"} {
		got := types(t, src)
		if got[0] != token.MATCH {
			t.Errorf("%q lexed as %v", src, got[0])
		}
	}
	if types(t, "merge all same")[0] != token.MERGE {
		t.Error("merge keyword")
	}
	got := types(t, "MERGE ALL SAME")
	want := []token.Type{token.MERGE, token.ALL, token.SAME, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MERGE ALL SAME lexed as %v", got)
		}
	}
	// Synonyms.
	if types(t, "ascending")[0] != token.ASC || types(t, "DESCENDING")[0] != token.DESC {
		t.Error("ASC/DESC synonyms")
	}
}

func TestIdentifiers(t *testing.T) {
	toks, err := Tokenize("foo _bar baz9 `weird id` `tick``inside`")
	if err != nil {
		t.Fatal(err)
	}
	wantLits := []string{"foo", "_bar", "baz9", "weird id", "tick`inside"}
	for i, want := range wantLits {
		if toks[i].Type != token.Ident || toks[i].Lit != want {
			t.Errorf("token %d = %v %q, want Ident %q", i, toks[i].Type, toks[i].Lit, want)
		}
	}
}

func TestNumbers(t *testing.T) {
	toks, err := Tokenize("0 42 1.5 1e10 2.5e-3 0x1F .5")
	if err != nil {
		t.Fatal(err)
	}
	wants := []struct {
		typ token.Type
		lit string
	}{
		{token.Int, "0"}, {token.Int, "42"}, {token.Float, "1.5"},
		{token.Float, "1e10"}, {token.Float, "2.5e-3"}, {token.Int, "0x1F"},
		{token.Float, "0.5"},
	}
	for i, w := range wants {
		if toks[i].Type != w.typ || toks[i].Lit != w.lit {
			t.Errorf("token %d = %v %q, want %v %q", i, toks[i].Type, toks[i].Lit, w.typ, w.lit)
		}
	}
}

func TestRangeVsFloat(t *testing.T) {
	// "1..3" must lex as INT DOTDOT INT, not FLOAT.
	got := types(t, "*1..3")
	want := []token.Type{token.Star, token.Int, token.DotDot, token.Int, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("*1..3 lexed as %v", got)
		}
	}
}

func TestStrings(t *testing.T) {
	toks, err := Tokenize(`'abc' "dq" 'es\'c' "tab\tend" 'A'`)
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{"abc", "dq", "es'c", "tab\tend", "A"}
	for i, w := range wants {
		if toks[i].Type != token.String || toks[i].Lit != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Lit, w)
		}
	}
}

func TestParams(t *testing.T) {
	toks, err := Tokenize("$p $limit $`weird name`")
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{"p", "limit", "weird name"}
	for i, w := range wants {
		if toks[i].Type != token.Param || toks[i].Lit != w {
			t.Errorf("token %d = %v %q, want Param %q", i, toks[i].Type, toks[i].Lit, w)
		}
	}
}

func TestOperators(t *testing.T) {
	got := types(t, "( ) [ ] { } , : ; . .. + - * / % ^ = <> < <= > >= += |")
	want := []token.Type{
		token.LParen, token.RParen, token.LBracket, token.RBracket,
		token.LBrace, token.RBrace, token.Comma, token.Colon, token.Semi,
		token.Dot, token.DotDot, token.Plus, token.Minus, token.Star,
		token.Slash, token.Percent, token.Caret, token.Eq, token.Neq,
		token.Lt, token.Leq, token.Gt, token.Geq, token.PlusEq, token.Pipe,
		token.EOF,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPatternTokens(t *testing.T) {
	// The ASCII-art pattern syntax decomposes into single-char tokens.
	got := types(t, "(u)-[:ORDERED]->(p)<-[:OFFERS]-(v)")
	want := []token.Type{
		token.LParen, token.Ident, token.RParen,
		token.Minus, token.LBracket, token.Colon, token.Ident, token.RBracket, token.Minus, token.Gt,
		token.LParen, token.Ident, token.RParen,
		token.Lt, token.Minus, token.LBracket, token.Colon, token.Ident, token.RBracket, token.Minus,
		token.LParen, token.Ident, token.RParen,
		token.EOF,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestComments(t *testing.T) {
	got := types(t, "MATCH // line comment\n/* block\ncomment */ RETURN")
	want := []token.Type{token.MATCH, token.RETURN, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestPositions(t *testing.T) {
	toks, err := Tokenize("MATCH\n  (n)")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Column != 1 {
		t.Errorf("MATCH pos = %+v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Column != 3 {
		t.Errorf("LParen pos = %+v", toks[1].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	bad := []string{
		"'unterminated",
		"\"unterminated",
		"`unterminated",
		"/* unterminated",
		"'bad \\q escape'",
		"'bad \\u00ZZ'",
		"@",
		"$ ",
		"1e+",
		"0x",
	}
	for _, src := range bad {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q): expected error", src)
		} else if !strings.Contains(err.Error(), "lex error") {
			t.Errorf("Tokenize(%q): error %q lacks position prefix", src, err)
		}
	}
}

func TestFullQuery(t *testing.T) {
	src := `MATCH (p:Product)<-[:OFFERS]-(v:Vendor)-[:OFFERS]->(q:Product)
WHERE p.name = "laptop"
RETURN v`
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[len(toks)-1].Type != token.EOF {
		t.Error("missing EOF")
	}
	// Spot checks.
	if toks[0].Type != token.MATCH {
		t.Error("first token")
	}
}

// Tokens take their text from the source: a statement without escapes
// costs the token slice and nothing per token.
func TestTokenizeAllocatesOnlyTheSlice(t *testing.T) {
	src := "MATCH (u:User{id:4711, name:'ann', w:1.5})-[:KNOWS*1..3]->(v) WHERE v.name <> $p RETURN u.name AS name // q1-7"
	if n := testing.AllocsPerRun(100, func() { Tokenize(src) }); n != 1 {
		t.Errorf("Tokenize allocates %v times, want 1", n)
	}
}

// A text that is mostly one literal lexes to a handful of tokens and
// must not reserve token space by its length.
func TestTokenizeReservesByTokens(t *testing.T) {
	src := "RETURN '" + strings.Repeat("x", 1<<20) + "' AS s"
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 5 || cap(toks) > maxPresize {
		t.Errorf("%d tokens in a slice of capacity %d, want 5 in at most %d", len(toks), cap(toks), maxPresize)
	}
}
