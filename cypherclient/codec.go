package cypherclient

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/value"
)

// This file is the client's own JSON codec for the protocol: requests
// are appended to a buffer the connection reuses, and replies are
// decoded in one pass straight into result values. It shares no code
// with the server's codec on purpose (see the package comment).

// request is one outgoing message; zero fields are left out.
type request struct {
	typ, query, mode string
	params           map[string]any
	pull, n          int
}

// appendRequest appends r's JSON object to b.
func appendRequest(b []byte, r *request) ([]byte, error) {
	b = appendQuoted(append(b, `{"type":`...), r.typ)
	if r.query != "" {
		b = appendQuoted(append(b, `,"query":`...), r.query)
	}
	if r.mode != "" {
		b = appendQuoted(append(b, `,"mode":`...), r.mode)
	}
	if r.pull != 0 {
		b = strconv.AppendInt(append(b, `,"pull":`...), int64(r.pull), 10)
	}
	if r.n != 0 {
		b = strconv.AppendInt(append(b, `,"n":`...), int64(r.n), 10)
	}
	if len(r.params) > 0 {
		b = append(b, `,"params":{`...)
		sep := false
		for k, x := range r.params {
			v, err := value.FromGo(x)
			if err == nil {
				if sep {
					b = append(b, ',')
				}
				sep = true
				b, err = appendValue(append(appendQuoted(b, k), ':'), v)
			}
			if err != nil {
				return nil, fmt.Errorf("parameter $%s: %w", k, err)
			}
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// appendValue appends v in the wire's tagged form.
func appendValue(b []byte, v Value) ([]byte, error) {
	var err error
	switch x := v.(type) {
	case nil, value.Null:
		b = append(b, `{"null":true}`...)
	case value.Bool:
		b = append(strconv.AppendBool(append(b, `{"bool":`...), bool(x)), '}')
	case value.Int:
		b = append(strconv.AppendInt(append(b, `{"int":`...), int64(x), 10), '}')
	case value.Float:
		switch f := float64(x); {
		case math.IsNaN(f):
			b = append(b, `{"floatSpecial":"nan"}`...)
		case math.IsInf(f, 1):
			b = append(b, `{"floatSpecial":"+inf"}`...)
		case math.IsInf(f, -1):
			b = append(b, `{"floatSpecial":"-inf"}`...)
		default:
			// 'g' with the shortest round-trip precision is valid JSON
			// and parses back to the same bits.
			b = append(strconv.AppendFloat(append(b, `{"float":`...), f, 'g', -1, 64), '}')
		}
	case value.String:
		b = append(appendQuoted(append(b, `{"string":`...), string(x)), '}')
	case value.List:
		b = append(b, `{"isList":true,"list":[`...)
		for i, el := range x {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendValue(b, el); err != nil {
				return nil, err
			}
		}
		b = append(b, "]}"...)
	case value.Map:
		b = append(b, `{"isMap":true,"map":{`...)
		sep := false
		for k, el := range x {
			if sep {
				b = append(b, ',')
			}
			sep = true
			if b, err = appendValue(append(appendQuoted(b, k), ':'), el); err != nil {
				return nil, err
			}
		}
		b = append(b, "}}"...)
	case value.Node:
		b = append(strconv.AppendInt(append(b, `{"node":`...), x.ID, 10), '}')
	case value.Rel:
		b = append(strconv.AppendInt(append(b, `{"rel":`...), x.ID, 10), '}')
	case value.Path:
		b = appendInts(append(b, `{"path":{"nodes":`...), x.Nodes)
		b = append(appendInts(append(b, `,"rels":`...), x.Rels), "}}"...)
	default:
		return nil, fmt.Errorf("cypherclient: cannot encode %s value", v.Kind())
	}
	return b, nil
}

func appendInts(b []byte, xs []int64) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return append(b, ']')
}

// appendQuoted appends s as a JSON string. Only what JSON requires is
// escaped: the quote, the backslash and control characters.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, `\u00`...)
			b = append(b, "0123456789abcdef"[c>>4], "0123456789abcdef"[c&0xF])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// reply is one decoded server message.
type reply struct {
	typ, server, dialect string
	plan, code, message  string
	columns              []string
	hasColumns           bool // the reply carries a result (columns present)
	rows                 [][]Value
	more                 bool
	stats                UpdateStats
}

// maxNesting bounds how deeply a reply may nest containers.
const maxNesting = 10000

// decoder reads a JSON reply body.
type decoder struct {
	buf   []byte
	i     int
	depth int
}

var errSyntax = errors.New("cypherclient: malformed reply")

func (d *decoder) syntax() error { return fmt.Errorf("%w: offset %d", errSyntax, d.i) }

// decodeReply decodes a reply frame body into r.
func decodeReply(body []byte, r *reply) error {
	d := &decoder{buf: body}
	err := d.members(func(key []byte) error {
		var err error
		switch string(key) {
		case "type":
			var t []byte
			t, err = d.text()
			switch string(t) { // the usual two without a copy
			case "success":
				r.typ = "success"
			case "failure":
				r.typ = "failure"
			default:
				r.typ = string(t)
			}
		case "server":
			r.server, err = d.str()
		case "dialect":
			r.dialect, err = d.str()
		case "plan":
			r.plan, err = d.str()
		case "code":
			r.code, err = d.str()
		case "message":
			r.message, err = d.str()
		case "more":
			r.more, err = d.boolean()
		case "columns":
			r.hasColumns = true
			err = d.elements(func() error {
				col, err := d.str()
				r.columns = append(r.columns, col)
				return err
			})
		case "rows":
			err = d.elements(func() error {
				var row []Value
				err := d.elements(func() error {
					v, err := d.value()
					row = append(row, v)
					return err
				})
				r.rows = append(r.rows, row)
				return err
			})
		case "stats":
			err = d.members(func(key []byte) error {
				n, err := d.integer()
				switch string(key) {
				case "nodesCreated":
					r.stats.NodesCreated = int(n)
				case "nodesDeleted":
					r.stats.NodesDeleted = int(n)
				case "relsCreated":
					r.stats.RelsCreated = int(n)
				case "relsDeleted":
					r.stats.RelsDeleted = int(n)
				case "propsSet":
					r.stats.PropsSet = int(n)
				case "labelsAdded":
					r.stats.LabelsAdded = int(n)
				case "labelsRemoved":
					r.stats.LabelsRemoved = int(n)
				}
				return err
			})
		default:
			err = d.skip()
		}
		return err
	})
	if err != nil {
		return err
	}
	if d.space(); d.i != len(d.buf) {
		return d.syntax()
	}
	return nil
}

// value decodes one tagged value. When an object carries more than one
// tag, the first in this order wins: null, bool, int, float,
// floatSpecial, string, isList, isMap, node, rel, path.
func (d *decoder) value() (Value, error) {
	const (
		hasNull = 1 << iota
		hasBool
		hasInt
		hasFloat
		hasSpecial
		hasString
		hasList
		hasMap
		hasNode
		hasRel
		hasPath
	)
	var (
		seen       int
		b          bool
		i, id, rel int64
		f          float64
		s, special string
		list       value.List
		m          value.Map
		path       value.Path
	)
	err := d.members(func(key []byte) error {
		var err error
		var flag bool
		switch string(key) {
		case "null":
			if flag, err = d.boolean(); flag {
				seen |= hasNull
			}
		case "bool":
			b, err = d.boolean()
			seen |= hasBool
		case "int":
			i, err = d.integer()
			seen |= hasInt
		case "float":
			f, err = d.float()
			seen |= hasFloat
		case "floatSpecial":
			special, err = d.str()
			seen |= hasSpecial
		case "string":
			s, err = d.str()
			seen |= hasString
		case "isList":
			if flag, err = d.boolean(); flag {
				seen |= hasList
			}
		case "list":
			list = value.List{}
			err = d.elements(func() error {
				v, err := d.value()
				list = append(list, v)
				return err
			})
		case "isMap":
			if flag, err = d.boolean(); flag {
				seen |= hasMap
			}
		case "map":
			m = value.Map{}
			err = d.members(func(k []byte) error {
				v, err := d.value()
				m[string(k)] = v
				return err
			})
		case "node":
			id, err = d.integer()
			seen |= hasNode
		case "rel":
			rel, err = d.integer()
			seen |= hasRel
		case "path":
			seen |= hasPath
			err = d.members(func(k []byte) error {
				var err error
				switch string(k) {
				case "nodes":
					path.Nodes, err = d.integers()
				case "rels":
					path.Rels, err = d.integers()
				default:
					err = d.skip()
				}
				return err
			})
		default:
			err = d.skip()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	switch {
	case seen&hasNull != 0:
		return value.NullValue, nil
	case seen&hasBool != 0:
		return value.Bool(b), nil
	case seen&hasInt != 0:
		return value.Int(i), nil
	case seen&hasFloat != 0:
		return value.Float(f), nil
	case seen&hasSpecial != 0:
		switch special {
		case "nan":
			return value.Float(math.NaN()), nil
		case "+inf":
			return value.Float(math.Inf(1)), nil
		case "-inf":
			return value.Float(math.Inf(-1)), nil
		}
		return nil, fmt.Errorf("cypherclient: unknown float special %q", special)
	case seen&hasString != 0:
		return value.String(s), nil
	case seen&hasList != 0:
		if list == nil {
			list = value.List{}
		}
		return list, nil
	case seen&hasMap != 0:
		if m == nil {
			m = value.Map{}
		}
		return m, nil
	case seen&hasNode != 0:
		return value.Node{ID: id}, nil
	case seen&hasRel != 0:
		return value.Rel{ID: rel}, nil
	case seen&hasPath != 0:
		if len(path.Nodes) != len(path.Rels)+1 {
			return nil, errors.New("cypherclient: malformed path value")
		}
		return path, nil
	}
	return nil, errors.New("cypherclient: wire value has no recognized tag")
}

// space skips whitespace.
func (d *decoder) space() {
	for d.i < len(d.buf) {
		switch d.buf[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next skips whitespace and reports the next byte (0 at the end).
func (d *decoder) next() byte {
	if d.space(); d.i < len(d.buf) {
		return d.buf[d.i]
	}
	return 0
}

// members walks an object, calling member with each key; member must
// decode the value. The key may alias the body and is valid only during
// the call. A null stands for an empty object.
func (d *decoder) members(member func(key []byte) error) error {
	return d.container('{', '}', func() error {
		key, err := d.text()
		if err != nil {
			return err
		}
		if d.next() != ':' {
			return d.syntax()
		}
		d.i++
		return member(key)
	})
}

// elements walks an array, calling elem for each element. A null stands
// for an empty array.
func (d *decoder) elements(elem func() error) error {
	return d.container('[', ']', elem)
}

func (d *decoder) container(open, close byte, item func() error) error {
	if d.word("null") {
		return nil
	}
	if d.next() != open {
		return d.syntax()
	}
	d.i++
	if d.depth++; d.depth > maxNesting {
		return fmt.Errorf("cypherclient: reply nests deeper than %d", maxNesting)
	}
	defer func() { d.depth-- }()
	if d.next() == close {
		d.i++
		return nil
	}
	for {
		if err := item(); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.i++
		case close:
			d.i++
			return nil
		default:
			return d.syntax()
		}
	}
}

// word consumes the literal w if it comes next.
func (d *decoder) word(w string) bool {
	d.space()
	if len(d.buf)-d.i >= len(w) && string(d.buf[d.i:d.i+len(w)]) == w {
		d.i += len(w)
		return true
	}
	return false
}

func (d *decoder) boolean() (bool, error) {
	switch {
	case d.word("true"):
		return true, nil
	case d.word("false"):
		return false, nil
	}
	return false, d.syntax()
}

// numberText consumes a JSON number and returns its text.
func (d *decoder) numberText() ([]byte, error) {
	d.space()
	start := d.i
	digits := func() int {
		n := 0
		for d.i < len(d.buf) && d.buf[d.i] >= '0' && d.buf[d.i] <= '9' {
			d.i++
			n++
		}
		return n
	}
	if d.i < len(d.buf) && d.buf[d.i] == '-' {
		d.i++
	}
	if d.i < len(d.buf) && d.buf[d.i] == '0' {
		d.i++
	} else if digits() == 0 {
		return nil, d.syntax()
	}
	if d.i < len(d.buf) && d.buf[d.i] == '.' {
		d.i++
		if digits() == 0 {
			return nil, d.syntax()
		}
	}
	if d.i < len(d.buf) && (d.buf[d.i] == 'e' || d.buf[d.i] == 'E') {
		d.i++
		if d.i < len(d.buf) && (d.buf[d.i] == '+' || d.buf[d.i] == '-') {
			d.i++
		}
		if digits() == 0 {
			return nil, d.syntax()
		}
	}
	return d.buf[start:d.i], nil
}

// integer decodes an exact int64; ids above 2^53 never pass through a
// float.
func (d *decoder) integer() (int64, error) {
	text, err := d.numberText()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(text), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cypherclient: malformed integer %q", text)
	}
	return n, nil
}

// float decodes a float64. The server writes the shortest decimal that
// round-trips, so parsing it back yields the bit-identical float.
func (d *decoder) float() (float64, error) {
	text, err := d.numberText()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return 0, fmt.Errorf("cypherclient: malformed float %q", text)
	}
	return f, nil
}

func (d *decoder) integers() ([]int64, error) {
	out := []int64{}
	err := d.elements(func() error {
		n, err := d.integer()
		out = append(out, n)
		return err
	})
	return out, err
}

// str decodes a JSON string.
func (d *decoder) str() (string, error) {
	b, err := d.text()
	return string(b), err
}

// text decodes a JSON string's contents, aliasing the body when the
// string has no escapes and is plain ASCII.
func (d *decoder) text() ([]byte, error) {
	if d.next() != '"' {
		return nil, d.syntax()
	}
	d.i++
	start := d.i
	for d.i < len(d.buf) {
		c := d.buf[d.i]
		if c == '"' {
			d.i++
			return d.buf[start : d.i-1], nil
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		d.i++
	}
	// Slow path: escapes, control characters or non-ASCII text.
	out := append([]byte(nil), d.buf[start:d.i]...)
	for d.i < len(d.buf) {
		c := d.buf[d.i]
		switch {
		case c == '"':
			d.i++
			return out, nil
		case c < 0x20:
			return nil, d.syntax()
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(d.buf[d.i:])
			out = utf8.AppendRune(out, r) // invalid bytes become U+FFFD
			d.i += n
		case c != '\\':
			out = append(out, c)
			d.i++
		default:
			r, err := d.escape()
			if err != nil {
				return nil, err
			}
			out = utf8.AppendRune(out, r)
		}
	}
	return nil, d.syntax()
}

// escape decodes the escape sequence at d.i.
func (d *decoder) escape() (rune, error) {
	if d.i+1 >= len(d.buf) {
		return 0, d.syntax()
	}
	c := d.buf[d.i+1]
	d.i += 2
	switch c {
	case '"', '\\', '/':
		return rune(c), nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 't':
		return '\t', nil
	case 'u':
		r, ok := d.hex(d.i)
		if !ok {
			return 0, d.syntax()
		}
		d.i += 4
		if !utf16.IsSurrogate(r) {
			return r, nil
		}
		if d.i+1 < len(d.buf) && d.buf[d.i] == '\\' && d.buf[d.i+1] == 'u' {
			if lo, ok := d.hex(d.i + 2); ok {
				if pair := utf16.DecodeRune(r, lo); pair != utf8.RuneError {
					d.i += 6
					return pair, nil
				}
			}
		}
		return utf8.RuneError, nil
	}
	return 0, d.syntax()
}

// hex parses the four hex digits at buf[at:].
func (d *decoder) hex(at int) (rune, bool) {
	if at+4 > len(d.buf) {
		return 0, false
	}
	n, err := strconv.ParseUint(string(d.buf[at:at+4]), 16, 32)
	return rune(n), err == nil
}

// skip decodes and discards one value.
func (d *decoder) skip() error {
	switch d.next() {
	case '{':
		return d.members(func([]byte) error { return d.skip() })
	case '[':
		return d.elements(d.skip)
	case '"':
		_, err := d.text()
		return err
	case 't', 'f':
		_, err := d.boolean()
		return err
	case 'n':
		if d.word("null") {
			return nil
		}
		return d.syntax()
	}
	_, err := d.numberText()
	return err
}
