package tagjson

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/value"
)

// maxDepth bounds container nesting, as encoding/json bounds it, so a
// hostile input of nested brackets cannot exhaust the stack.
const maxDepth = 10000

// Scanner decodes JSON from a byte slice, one value at a time, without
// reflection. Strings it returns are copies, so the slice may be reused
// once decoding is done; a key passed to an Object callback aliases the
// slice and is valid only during the call. Input encoding/json would
// reject is an error here too, with one difference: object keys match
// exactly, not case-insensitively.
type Scanner struct {
	data  []byte
	pos   int
	depth int
}

// NewScanner returns a Scanner reading data from its start.
func NewScanner(data []byte) *Scanner { return &Scanner{data: data} }

// fail reports input that is not the JSON expected at the current offset.
func (s *Scanner) fail(msg string) error { return fmt.Errorf("tagjson: %s at offset %d", msg, s.pos) }

// peek skips whitespace and returns the next byte, or 0 at the end.
func (s *Scanner) peek() byte {
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

// consume skips whitespace and consumes c if it is next.
func (s *Scanner) consume(c byte) bool {
	if s.peek() == c {
		s.pos++
		return true
	}
	return false
}

// literal consumes lit if it is next.
func (s *Scanner) literal(lit string) bool {
	if s.peek() != lit[0] || len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

// End requires that only whitespace remains.
func (s *Scanner) End() error {
	if s.peek() != 0 || s.pos < len(s.data) {
		return s.fail("trailing data")
	}
	return nil
}

// Null consumes a null literal if one is next.
func (s *Scanner) Null() bool { return s.literal("null") }

// Object scans an object, calling field for each member with its
// (unescaped) key; field must consume the member's value.
func (s *Scanner) Object(field func(key []byte) error) error {
	if !s.consume('{') {
		return s.fail("expected object")
	}
	if s.depth++; s.depth > maxDepth {
		return s.fail("nesting too deep")
	}
	if !s.consume('}') {
		for {
			key, err := s.str()
			if err != nil {
				return err
			}
			if !s.consume(':') {
				return s.fail("expected ':' after object key")
			}
			if err := field(key); err != nil {
				return err
			}
			if s.consume(',') {
				continue
			}
			if s.consume('}') {
				break
			}
			return s.fail("expected ',' or '}' in object")
		}
	}
	s.depth--
	return nil
}

// Array scans an array, calling elem for each element; elem must
// consume it.
func (s *Scanner) Array(elem func() error) error {
	if !s.consume('[') {
		return s.fail("expected array")
	}
	if s.depth++; s.depth > maxDepth {
		return s.fail("nesting too deep")
	}
	if !s.consume(']') {
		for {
			if err := elem(); err != nil {
				return err
			}
			if s.consume(',') {
				continue
			}
			if s.consume(']') {
				break
			}
			return s.fail("expected ',' or ']' in array")
		}
	}
	s.depth--
	return nil
}

// Skip scans and discards one value of any kind.
func (s *Scanner) Skip() error {
	switch s.peek() {
	case '{':
		return s.Object(func([]byte) error { return s.Skip() })
	case '[':
		return s.Array(s.Skip)
	case '"':
		_, err := s.str()
		return err
	case 't', 'f':
		_, err := s.Bool()
		return err
	case 'n':
		if s.Null() {
			return nil
		}
		return s.fail("invalid literal")
	default:
		_, _, err := s.number()
		return err
	}
}

// Raw scans one value that must open with the byte open ('{' or '[')
// and returns its JSON text, aliasing the input.
func (s *Scanner) Raw(open byte) ([]byte, error) {
	if s.peek() != open {
		return nil, s.fail("expected " + string(open))
	}
	start := s.pos
	err := s.Skip()
	return s.data[start:s.pos], err
}

// Bool scans true or false.
func (s *Scanner) Bool() (bool, error) {
	switch {
	case s.literal("true"):
		return true, nil
	case s.literal("false"):
		return false, nil
	}
	return false, s.fail("expected boolean")
}

// String scans a string.
func (s *Scanner) String() (string, error) {
	b, err := s.str()
	return string(b), err
}

// Text scans a string and returns its unescaped bytes, which may alias
// the input, so a caller can match them against names it knows without
// allocating.
func (s *Scanner) Text() ([]byte, error) { return s.str() }

// Int scans an integer: a number with no fraction or exponent that fits
// in 64 bits.
func (s *Scanner) Int() (int64, error) {
	lit, integral, err := s.number()
	if err != nil {
		return 0, err
	}
	if !integral {
		return 0, s.fail("expected integer")
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var n uint64
	for _, c := range lit {
		d := uint64(c - '0')
		if n > (limit-d)/10 {
			return 0, s.fail("integer overflows int64")
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), nil
	}
	return int64(n), nil
}

// Float scans a number as a float64; one out of its range is an error.
func (s *Scanner) Float() (float64, error) {
	lit, _, err := s.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, s.fail("float out of range")
	}
	return f, nil
}

// number scans a number literal and returns its text; integral reports
// that it has neither fraction nor exponent.
func (s *Scanner) number() (lit []byte, integral bool, err error) {
	s.peek()
	start := s.pos
	if s.at('-') {
		s.pos++
	}
	switch {
	case s.at('0'):
		s.pos++
	case s.digits() == 0:
		return nil, false, s.fail("invalid value")
	}
	integral = true
	if s.at('.') {
		s.pos++
		integral = false
		if s.digits() == 0 {
			return nil, false, s.fail("expected digit after decimal point")
		}
	}
	if s.at('e') || s.at('E') {
		s.pos++
		integral = false
		if s.at('+') || s.at('-') {
			s.pos++
		}
		if s.digits() == 0 {
			return nil, false, s.fail("expected digit in exponent")
		}
	}
	return s.data[start:s.pos], integral, nil
}

func (s *Scanner) at(c byte) bool { return s.pos < len(s.data) && s.data[s.pos] == c }

// digits consumes a run of decimal digits and returns its length.
func (s *Scanner) digits() int {
	start := s.pos
	for s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.pos - start
}

// str scans a string literal and returns its contents unescaped. The
// result aliases the input unless the literal has escapes or non-ASCII
// bytes.
func (s *Scanner) str() ([]byte, error) {
	if !s.consume('"') {
		return nil, s.fail("expected string")
	}
	start := s.pos
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			return s.data[start : s.pos-1], nil
		case c == '\\' || c >= utf8.RuneSelf:
			return s.unquote(append([]byte(nil), s.data[start:s.pos]...))
		case c < 0x20:
			return nil, s.fail("control character in string")
		}
		s.pos++
	}
	return nil, s.fail("unterminated string")
}

// unquote continues a string literal that needs rewriting, appending to
// out: escapes are resolved, a lone surrogate and each byte of invalid
// UTF-8 become U+FFFD, as encoding/json decodes them.
func (s *Scanner) unquote(out []byte) ([]byte, error) {
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case c == '"':
			s.pos++
			return out, nil
		case c < 0x20:
			return nil, s.fail("control character in string")
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			s.pos++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(s.data[s.pos:])
			if r == utf8.RuneError && size == 1 {
				out = utf8.AppendRune(out, unicode.ReplacementChar)
			} else {
				out = append(out, s.data[s.pos:s.pos+size]...)
			}
			s.pos += size
		default: // an escape
			if s.pos+1 >= len(s.data) {
				return nil, s.fail("unterminated string")
			}
			e := s.data[s.pos+1]
			s.pos += 2
			switch e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := s.hex4(s.pos)
				if !ok {
					return nil, s.fail("invalid \\u escape")
				}
				s.pos += 4
				if utf16.IsSurrogate(r) {
					// A surrogate pairs with an immediately following \u
					// escape, or stands alone as U+FFFD.
					r2, ok := rune(0), false
					if s.pos+1 < len(s.data) && s.data[s.pos] == '\\' && s.data[s.pos+1] == 'u' {
						r2, ok = s.hex4(s.pos + 2)
					}
					if dec := utf16.DecodeRune(r, r2); ok && dec != unicode.ReplacementChar {
						r = dec
						s.pos += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, s.fail("invalid escape in string")
			}
		}
	}
	return nil, s.fail("unterminated string")
}

// hex4 decodes the four hex digits at data[i:].
func (s *Scanner) hex4(i int) (rune, bool) {
	if i+4 > len(s.data) {
		return 0, false
	}
	var r rune
	for _, c := range s.data[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// ids scans an id array; null reads as an empty list, and a null
// element as 0, as encoding/json reads them into an []int64.
func (s *Scanner) ids() ([]int64, error) {
	if s.Null() {
		return nil, nil
	}
	ids := []int64{}
	err := s.Array(func() error {
		var id int64
		var err error
		if !s.Null() {
			id, err = s.Int()
		}
		ids = append(ids, id)
		return err
	})
	return ids, err
}

// Tags of a tagged value whose member can be absent, in the order Value
// prefers them when an object carries more than one.
const (
	tagBool = 1 << iota
	tagInt
	tagFloat
	tagString
	tagNode
	tagRel
	tagPath
)

// errNoTag reports a tagged value that carries none of the tags.
var errNoTag = errors.New("tagjson: value has no tag")

// Value scans one tagged value. It accepts what encoding/json accepted
// when the wire and the snapshot decoded through structs: unknown
// members are skipped; null leaves "null", "isList", "isMap" and
// "floatSpecial" as they were and clears any other tag; and an object
// that carries more than one tag decodes by the first present in the
// order null, bool, int, float, floatSpecial, string, isList, isMap,
// node, rel, path — even when a tag it does not use holds an invalid
// value.
func (s *Scanner) Value() (value.Value, error) {
	v, bad, err := s.value()
	if err != nil {
		return nil, err
	}
	return v, bad
}

// value is Value with two kinds of failure. err is input the scan cannot
// get past: bad JSON, or a tag of the wrong JSON type. bad is a value
// that scanned cleanly but is not valid (no tag, an unknown float
// special, a malformed path); the scan goes on, since the value around
// it may not use it.
func (s *Scanner) value() (v value.Value, bad, err error) {
	if s.Null() {
		return nil, errNoTag, nil
	}
	var (
		tags                  int
		isNull, isList, isMap bool
		b                     bool
		i, node, rel          int64
		f                     float64
		special, str          string
		list                  value.List
		m                     value.Map
		elemBad, listBad      error
		mapBad                error
		path                  value.Path
	)
	// elem scans a list element or map entry, keeping the first bad one.
	elem := func() (value.Value, error) {
		v, bad, err := s.value()
		if elemBad == nil {
			elemBad = bad
		}
		return v, err
	}
	err = s.Object(func(key []byte) error {
		null := s.Null()
		var err error
		switch string(key) {
		case "null":
			if !null {
				isNull, err = s.Bool()
			}
		case "bool":
			if tags &^= tagBool; !null {
				b, err = s.Bool()
				tags |= tagBool
			}
		case "int":
			if tags &^= tagInt; !null {
				i, err = s.Int()
				tags |= tagInt
			}
		case "float":
			if tags &^= tagFloat; !null {
				f, err = s.Float()
				tags |= tagFloat
			}
		case "floatSpecial":
			if !null {
				special, err = s.String()
			}
		case "string":
			if tags &^= tagString; !null {
				str, err = s.String()
				tags |= tagString
			}
		case "list":
			list, elemBad = nil, nil
			if !null {
				list = value.List{}
				err = s.Array(func() error {
					v, err := elem()
					list = append(list, v)
					return err
				})
			}
			listBad = elemBad
		case "isList":
			if !null {
				isList, err = s.Bool()
			}
		case "map":
			m, elemBad = nil, nil
			if !null {
				m = value.Map{}
				err = s.Object(func(k []byte) error {
					v, err := elem()
					m[string(k)] = v
					return err
				})
			}
			mapBad = elemBad
		case "isMap":
			if !null {
				isMap, err = s.Bool()
			}
		case "node":
			if tags &^= tagNode; !null {
				node, err = s.Int()
				tags |= tagNode
			}
		case "rel":
			if tags &^= tagRel; !null {
				rel, err = s.Int()
				tags |= tagRel
			}
		case "path":
			if tags &^= tagPath; !null {
				path = value.Path{}
				err = s.Object(func(k []byte) error {
					var err error
					switch string(k) {
					case "nodes":
						path.Nodes, err = s.ids()
					case "rels":
						path.Rels, err = s.ids()
					default:
						err = s.Skip()
					}
					return err
				})
				tags |= tagPath
			}
		default:
			if !null {
				err = s.Skip()
			}
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	switch {
	case isNull:
		return value.NullValue, nil, nil
	case tags&tagBool != 0:
		return value.Bool(b), nil, nil
	case tags&tagInt != 0:
		return value.Int(i), nil, nil
	case tags&tagFloat != 0:
		return value.Float(f), nil, nil
	case special != "":
		switch special {
		case "nan":
			return value.Float(math.NaN()), nil, nil
		case "+inf":
			return value.Float(math.Inf(1)), nil, nil
		case "-inf":
			return value.Float(math.Inf(-1)), nil, nil
		}
		return nil, fmt.Errorf("tagjson: unknown float special %q", special), nil
	case tags&tagString != 0:
		return value.String(str), nil, nil
	case isList:
		if list == nil {
			list = value.List{}
		}
		return list, listBad, nil
	case isMap:
		if m == nil {
			m = value.Map{}
		}
		return m, mapBad, nil
	case tags&tagNode != 0:
		return value.Node{ID: node}, nil, nil
	case tags&tagRel != 0:
		return value.Rel{ID: rel}, nil, nil
	case tags&tagPath != 0:
		if len(path.Nodes) != len(path.Rels)+1 {
			return nil, fmt.Errorf("tagjson: malformed path (%d nodes, %d rels)", len(path.Nodes), len(path.Rels)), nil
		}
		return path, nil, nil
	}
	return nil, errNoTag, nil
}
