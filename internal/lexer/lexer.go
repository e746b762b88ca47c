// Package lexer tokenizes Cypher source text.
//
// It supports the lexical syntax used throughout the paper: identifiers
// (including backquoted), case-insensitive keywords, integer and float
// literals, single- and double-quoted strings with escapes, parameters
// ($name), line comments (//...) and block comments (/* ... */).
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/token"
)

// Error is a lexical error with position information.
type Error struct {
	Pos token.Position
	Msg string
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("lex error at %d:%d: %s", e.Pos.Line, e.Pos.Column, e.Msg)
}

// Lexer scans Cypher source text into tokens.
type Lexer struct {
	src  string
	off  int // byte offset of next rune
	line int
	col  int
	err  *Error
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// maxPresize bounds the tokens Tokenize reserves before scanning.
const maxPresize = 256

// Tokenize scans the entire input, returning all tokens up to and
// including EOF, or the first lexical error.
func Tokenize(src string) ([]token.Token, error) {
	lx := New(src)
	// Dense statement text runs at about one token per two and a half
	// bytes, so an ordinary statement never regrows this. The cap keeps
	// a long text that is mostly one literal or comment from reserving
	// token space by its length; longer texts grow by append.
	out := make([]token.Token, 0, min(len(src)/2+2, maxPresize))
	for {
		t := lx.Next()
		if t.Type == token.Illegal {
			return nil, lx.err
		}
		out = append(out, t)
		if t.Type == token.EOF {
			return out, nil
		}
	}
}

// runeAt decodes the rune at byte offset off and its width; past the
// end it returns 0. ASCII takes no decoding.
func (l *Lexer) runeAt(off int) (rune, int) {
	if off >= len(l.src) {
		return 0, 0
	}
	if c := l.src[off]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[off:])
}

func (l *Lexer) peek() rune {
	r, _ := l.runeAt(l.off)
	return r
}

func (l *Lexer) peek2() rune {
	_, w := l.runeAt(l.off)
	r, _ := l.runeAt(l.off + w)
	return r
}

func (l *Lexer) advance() rune {
	r, w := l.runeAt(l.off)
	if w == 0 {
		return 0
	}
	l.off += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) pos() token.Position { return token.Position{Line: l.line, Column: l.col} }

func (l *Lexer) errorf(pos token.Position, format string, args ...any) token.Token {
	l.err = &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	return token.Token{Type: token.Illegal, Pos: pos}
}

// Next scans and returns the next token.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	if l.err != nil {
		return token.Token{Type: token.Illegal, Pos: l.err.Pos}
	}
	pos := l.pos()
	r := l.peek()
	switch {
	case r == 0:
		return token.Token{Type: token.EOF, Pos: pos}
	case isIdentStart(r):
		return l.scanIdent(pos)
	case isDigit(r):
		return l.scanNumber(pos)
	case r == '\'' || r == '"':
		return l.scanString(pos)
	case r == '`':
		return l.scanBackquoted(pos)
	case r == '$':
		return l.scanParam(pos)
	}
	l.advance()
	simple := func(t token.Type) token.Token {
		return token.Token{Type: t, Lit: t.String(), Pos: pos}
	}
	switch r {
	case '(':
		return simple(token.LParen)
	case ')':
		return simple(token.RParen)
	case '[':
		return simple(token.LBracket)
	case ']':
		return simple(token.RBracket)
	case '{':
		return simple(token.LBrace)
	case '}':
		return simple(token.RBrace)
	case ',':
		return simple(token.Comma)
	case ':':
		return simple(token.Colon)
	case ';':
		return simple(token.Semi)
	case '|':
		return simple(token.Pipe)
	case '.':
		if l.peek() == '.' {
			l.advance()
			return simple(token.DotDot)
		}
		if isDigit(l.peek()) {
			return l.scanFloatFraction(pos)
		}
		return simple(token.Dot)
	case '+':
		if l.peek() == '=' {
			l.advance()
			return simple(token.PlusEq)
		}
		return simple(token.Plus)
	case '-':
		return simple(token.Minus)
	case '*':
		return simple(token.Star)
	case '/':
		return simple(token.Slash)
	case '%':
		return simple(token.Percent)
	case '^':
		return simple(token.Caret)
	case '=':
		return simple(token.Eq)
	case '<':
		switch l.peek() {
		case '=':
			l.advance()
			return simple(token.Leq)
		case '>':
			l.advance()
			return simple(token.Neq)
		}
		return simple(token.Lt)
	case '>':
		if l.peek() == '=' {
			l.advance()
			return simple(token.Geq)
		}
		return simple(token.Gt)
	}
	return l.errorf(pos, "unexpected character %q", r)
}

func (l *Lexer) skipSpaceAndComments() {
	for {
		r := l.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			l.advance()
		case r == '/' && l.peek2() == '/':
			for l.peek() != 0 && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.peek2() == '*':
			pos := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.peek() != 0 {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(pos, "unterminated block comment")
				return
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	if r < utf8.RuneSelf {
		return r == '_' || 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z'
	}
	return unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || isDigit(r)
}

// isDigit is unicode.IsDigit with an ASCII fast path: a non-ASCII
// decimal digit lexes as part of a number or name too.
func isDigit(r rune) bool {
	if r < utf8.RuneSelf {
		return '0' <= r && r <= '9'
	}
	return unicode.IsDigit(r)
}

// The scanners below take a token's text as a substring of the source
// wherever it is spelled there verbatim, so lexing allocates nothing
// per token; only an escape in a string or backquoted name builds a
// new string.

func (l *Lexer) scanIdent(pos token.Position) token.Token {
	start := l.off
	for isIdentPart(l.peek()) {
		l.advance()
	}
	lit := l.src[start:l.off]
	return token.Token{Type: token.Lookup(lit), Lit: lit, Pos: pos}
}

func (l *Lexer) scanBackquoted(pos token.Position) token.Token {
	l.advance() // consume `
	start := l.off
	var sb *strings.Builder // non-nil once an escaped backquote is seen
	for {
		r := l.peek()
		if r == 0 {
			return l.errorf(pos, "unterminated backquoted identifier")
		}
		at := l.off
		l.advance()
		if r != '`' {
			sb = l.keepRune(sb, start, at, r)
			continue
		}
		if l.peek() == '`' { // escaped backquote
			if sb == nil {
				sb = &strings.Builder{}
				sb.WriteString(l.src[start:l.off])
			} else {
				sb.WriteRune('`')
			}
			l.advance()
			continue
		}
		if sb == nil {
			return token.Token{Type: token.Ident, Lit: l.src[start : l.off-1], Pos: pos}
		}
		return token.Token{Type: token.Ident, Lit: sb.String(), Pos: pos}
	}
}

// keepRune adds r, read at byte offset at of a quoted token whose text
// began at start, to the token's text. Verbatim text stays a substring
// (sb nil); a malformed byte decodes to utf8.RuneError, which the text
// spells as U+FFFD, so it starts a builder.
func (l *Lexer) keepRune(sb *strings.Builder, start, at int, r rune) *strings.Builder {
	if sb == nil && r == utf8.RuneError {
		sb = &strings.Builder{}
		sb.WriteString(l.src[start:at])
	}
	if sb != nil {
		sb.WriteRune(r)
	}
	return sb
}

func (l *Lexer) scanParam(pos token.Position) token.Token {
	l.advance() // consume $
	r := l.peek()
	if r == '`' {
		t := l.scanBackquoted(l.pos())
		if t.Type == token.Illegal {
			return t
		}
		return token.Token{Type: token.Param, Lit: t.Lit, Pos: pos}
	}
	if !isIdentStart(r) && !isDigit(r) {
		return l.errorf(pos, "invalid parameter name")
	}
	start := l.off
	for isIdentPart(l.peek()) {
		l.advance()
	}
	return token.Token{Type: token.Param, Lit: l.src[start:l.off], Pos: pos}
}

func (l *Lexer) scanNumber(pos token.Position) token.Token {
	start := l.off
	isFloat := false
	// Hex literal.
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		for isHexDigit(l.peek()) {
			l.advance()
		}
		if l.off-start == 2 {
			return l.errorf(pos, "malformed hex literal")
		}
		return token.Token{Type: token.Int, Lit: l.src[start:l.off], Pos: pos}
	}
	for isDigit(l.peek()) {
		l.advance()
	}
	// A fraction: avoid consuming the range operator "..".
	if l.peek() == '.' && isDigit(l.peek2()) {
		isFloat = true
		l.advance()
		for isDigit(l.peek()) {
			l.advance()
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		next := l.peek2()
		if isDigit(next) || next == '+' || next == '-' {
			isFloat = true
			l.advance() // e
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			if !isDigit(l.peek()) {
				return l.errorf(pos, "malformed exponent")
			}
			for isDigit(l.peek()) {
				l.advance()
			}
		}
	}
	t := token.Int
	if isFloat {
		t = token.Float
	}
	return token.Token{Type: t, Lit: l.src[start:l.off], Pos: pos}
}

// scanFloatFraction handles literals beginning with '.', e.g. ".5".
// The leading dot has already been consumed.
func (l *Lexer) scanFloatFraction(pos token.Position) token.Token {
	start := l.off
	for isDigit(l.peek()) {
		l.advance()
	}
	return token.Token{Type: token.Float, Lit: "0." + l.src[start:l.off], Pos: pos}
}

func isHexDigit(r rune) bool {
	return isDigit(r) || (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F')
}

func (l *Lexer) scanString(pos token.Position) token.Token {
	quote := l.advance()
	start := l.off
	var sb *strings.Builder // non-nil once an escape is seen
	for {
		r := l.peek()
		if r == 0 || r == '\n' {
			return l.errorf(pos, "unterminated string literal")
		}
		at := l.off
		l.advance()
		if r == quote {
			if sb == nil {
				return token.Token{Type: token.String, Lit: l.src[start : l.off-1], Pos: pos}
			}
			return token.Token{Type: token.String, Lit: sb.String(), Pos: pos}
		}
		if r != '\\' {
			sb = l.keepRune(sb, start, at, r)
			continue
		}
		if sb == nil {
			sb = &strings.Builder{}
			sb.WriteString(l.src[start:at])
		}
		esc := l.advance()
		switch esc {
		case 'n':
			sb.WriteRune('\n')
		case 't':
			sb.WriteRune('\t')
		case 'r':
			sb.WriteRune('\r')
		case 'b':
			sb.WriteRune('\b')
		case 'f':
			sb.WriteRune('\f')
		case '\\':
			sb.WriteRune('\\')
		case '\'':
			sb.WriteRune('\'')
		case '"':
			sb.WriteRune('"')
		case 'u':
			var code rune
			for i := 0; i < 4; i++ {
				d := l.advance()
				if !isHexDigit(d) {
					return l.errorf(pos, "malformed unicode escape")
				}
				code = code*16 + hexVal(d)
			}
			sb.WriteRune(code)
		case 0:
			return l.errorf(pos, "unterminated string literal")
		default:
			return l.errorf(pos, "unknown escape sequence \\%c", esc)
		}
	}
}

func hexVal(r rune) rune {
	switch {
	case r >= '0' && r <= '9':
		return r - '0'
	case r >= 'a' && r <= 'f':
		return r - 'a' + 10
	default:
		return r - 'A' + 10
	}
}
