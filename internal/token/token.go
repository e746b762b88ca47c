// Package token defines the lexical tokens of Cypher as used by the
// lexer and parser. Keyword recognition is case-insensitive, following
// Cypher convention.
package token

import "strings"

// Type identifies a class of token.
type Type int

// Token types.
const (
	Illegal Type = iota
	EOF

	Ident  // identifiers, including backquoted `weird id`
	Int    // 123
	Float  // 1.5, 1e10
	String // 'abc', "abc"
	Param  // $name

	// Punctuation and operators.
	LParen   // (
	RParen   // )
	LBracket // [
	RBracket // ]
	LBrace   // {
	RBrace   // }
	Comma    // ,
	Colon    // :
	Semi     // ;
	Dot      // .
	DotDot   // ..
	Plus     // +
	Minus    // -
	Star     // *
	Slash    // /
	Percent  // %
	Caret    // ^
	Eq       // =
	Neq      // <>
	Lt       // <
	Leq      // <=
	Gt       // >
	Geq      // >=
	PlusEq   // +=
	Pipe     // |

	// Reserved keywords.
	keywordStart
	MATCH
	OPTIONAL
	WHERE
	RETURN
	WITH
	UNWIND
	AS
	CREATE
	DELETE
	DETACH
	SET
	REMOVE
	MERGE
	ON
	FOREACH
	IN
	UNION
	ORDER
	BY
	ASC
	DESC
	SKIP
	LIMIT
	DISTINCT
	AND
	OR
	XOR
	NOT
	TRUE
	FALSE
	NULL
	IS
	STARTS
	ENDS
	CONTAINS
	CASE
	WHEN
	THEN
	ELSE
	END
	ALL
	SAME
	LOAD
	CSV
	FROM
	HEADERS
	FIELDTERMINATOR
	BEGIN
	COMMIT
	ROLLBACK
	INDEX
	DROP
	keywordEnd
)

var typeNames = [...]string{
	Illegal: "ILLEGAL", EOF: "EOF", Ident: "IDENT", Int: "INT",
	Float: "FLOAT", String: "STRING", Param: "PARAM",
	LParen: "(", RParen: ")", LBracket: "[", RBracket: "]",
	LBrace: "{", RBrace: "}", Comma: ",", Colon: ":", Semi: ";",
	Dot: ".", DotDot: "..", Plus: "+", Minus: "-", Star: "*",
	Slash: "/", Percent: "%", Caret: "^", Eq: "=", Neq: "<>",
	Lt: "<", Leq: "<=", Gt: ">", Geq: ">=", PlusEq: "+=", Pipe: "|",
	MATCH: "MATCH", OPTIONAL: "OPTIONAL", WHERE: "WHERE", RETURN: "RETURN",
	WITH: "WITH", UNWIND: "UNWIND", AS: "AS", CREATE: "CREATE",
	DELETE: "DELETE", DETACH: "DETACH", SET: "SET", REMOVE: "REMOVE",
	MERGE: "MERGE", ON: "ON", FOREACH: "FOREACH", IN: "IN",
	UNION: "UNION", ORDER: "ORDER", BY: "BY", ASC: "ASC", DESC: "DESC",
	SKIP: "SKIP", LIMIT: "LIMIT", DISTINCT: "DISTINCT", AND: "AND",
	OR: "OR", XOR: "XOR", NOT: "NOT", TRUE: "TRUE", FALSE: "FALSE",
	NULL: "NULL", IS: "IS", STARTS: "STARTS", ENDS: "ENDS",
	CONTAINS: "CONTAINS", CASE: "CASE", WHEN: "WHEN", THEN: "THEN",
	ELSE: "ELSE", END: "END", ALL: "ALL", SAME: "SAME",
	LOAD: "LOAD", CSV: "CSV", FROM: "FROM", HEADERS: "HEADERS",
	FIELDTERMINATOR: "FIELDTERMINATOR", BEGIN: "BEGIN",
	COMMIT: "COMMIT", ROLLBACK: "ROLLBACK",
	INDEX: "INDEX", DROP: "DROP",
}

// String returns a printable name for the token type.
func (t Type) String() string {
	if t >= 0 && int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return "UNKNOWN"
}

// IsKeyword reports whether the type is a reserved keyword.
func (t Type) IsKeyword() bool { return t > keywordStart && t < keywordEnd }

var keywords = func() map[string]Type {
	m := make(map[string]Type)
	for t := keywordStart + 1; t < keywordEnd; t++ {
		m[typeNames[t]] = t
	}
	// Long-form synonyms.
	m["ASCENDING"] = ASC
	m["DESCENDING"] = DESC
	return m
}()

// maxKeywordLen is the length of the longest keyword, FIELDTERMINATOR.
const maxKeywordLen = 15

// Lookup maps an identifier to its keyword type, or Ident.
// The comparison is case-insensitive. An ASCII identifier is upper-cased
// in a stack buffer; any other goes through Unicode case mapping, under
// which a non-ASCII identifier can still spell a keyword (`lımıt` is
// LIMIT, as ı upper-cases to I).
func Lookup(ident string) Type {
	var buf [maxKeywordLen]byte
	for i := 0; i < len(ident); i++ {
		c := ident[i]
		if c >= 0x80 {
			if t, ok := keywords[strings.ToUpper(ident)]; ok {
				return t
			}
			return Ident
		}
		if i >= maxKeywordLen {
			// Too long for a keyword, unless a later byte is non-ASCII.
			continue
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	if len(ident) > maxKeywordLen {
		return Ident
	}
	if t, ok := keywords[string(buf[:len(ident)])]; ok {
		return t
	}
	return Ident
}

// Position locates a token in the source text (1-based line and column).
type Position struct {
	Line   int
	Column int
}

// Token is a lexical token with its source text and position.
type Token struct {
	Type Type
	Lit  string // literal text (unquoted for strings/idents, raw for numbers)
	Pos  Position
}

// Is reports whether the token has the given type.
func (t Token) Is(tt Type) bool { return t.Type == tt }
