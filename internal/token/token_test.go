package token

import "testing"

func TestLookupCaseInsensitive(t *testing.T) {
	cases := map[string]Type{
		"MATCH": MATCH, "match": MATCH, "Match": MATCH,
		"merge": MERGE, "ALL": ALL, "same": SAME,
		"ascending": ASC, "DESCENDING": DESC,
		"notakeyword": Ident, "foo": Ident,
	}
	for lit, want := range cases {
		if got := Lookup(lit); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", lit, got, want)
		}
	}
}

func TestIsKeyword(t *testing.T) {
	for _, kw := range []Type{MATCH, RETURN, MERGE, ALL, SAME, FIELDTERMINATOR} {
		if !kw.IsKeyword() {
			t.Errorf("%v should be a keyword", kw)
		}
	}
	for _, not := range []Type{Ident, Int, String, LParen, Eq, EOF, Illegal} {
		if not.IsKeyword() {
			t.Errorf("%v should not be a keyword", not)
		}
	}
}

func TestTypeString(t *testing.T) {
	if MATCH.String() != "MATCH" || LParen.String() != "(" || EOF.String() != "EOF" {
		t.Error("String of known types")
	}
	if Type(9999).String() != "UNKNOWN" {
		t.Error("String of unknown type")
	}
}

func TestTokenIs(t *testing.T) {
	tok := Token{Type: MATCH, Lit: "MATCH"}
	if !tok.Is(MATCH) || tok.Is(RETURN) {
		t.Error("Token.Is")
	}
}

// Every keyword must round-trip through Lookup on its own name.
func TestAllKeywordsRoundTrip(t *testing.T) {
	for tt := Type(0); tt < Type(200); tt++ {
		if !tt.IsKeyword() {
			continue
		}
		name := tt.String()
		if name == "UNKNOWN" {
			t.Errorf("keyword %d has no name", tt)
			continue
		}
		if got := Lookup(name); got != tt {
			t.Errorf("Lookup(%q) = %v, want %v", name, got, tt)
		}
	}
}

// Lookup upper-cases ASCII identifiers in a buffer of maxKeywordLen
// bytes, so no keyword may be longer; a longer non-ASCII identifier
// still reaches Unicode case mapping.
func TestLookupBufferFitsKeywords(t *testing.T) {
	for name := range keywords {
		if len(name) > maxKeywordLen {
			t.Errorf("keyword %s is longer than maxKeywordLen %d", name, maxKeywordLen)
		}
	}
	for lit, want := range map[string]Type{
		"fieldterminator":  FIELDTERMINATOR,
		"fieldterminators": Ident,
		"lımıt":            LIMIT,
		"ascendıng":        ASC,
		"ſame":             SAME,
		"match_":           Ident,
	} {
		if got := Lookup(lit); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", lit, got, want)
		}
	}
}
