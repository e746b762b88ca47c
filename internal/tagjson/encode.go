// Package tagjson is the engine's codec for the explicitly tagged JSON
// form of a Cypher value — the shape the graph snapshot
// (internal/graph) and the wire protocol (internal/server) share:
//
//	{"null":true}   {"bool":true}   {"int":7}   {"float":1.5}
//	{"floatSpecial":"nan"}          (also "+inf" and "-inf")
//	{"string":"x"}  {"list":[…],"isList":true}  {"map":{…},"isMap":true}
//	{"node":1}      {"rel":2}       {"path":{"nodes":[1,2],"rels":[3]}}
//
// Explicit tags make integers, floats (NaN and the infinities included)
// and entity references round-trip bit-identically, which a bare JSON
// number would not. Append writes into a caller's buffer and produces
// exactly the bytes encoding/json produces for the same shape (fields in
// the order above, map keys sorted, HTML-safe string escapes), so the
// formats on disk and on the wire did not change when reflection left
// them. Scanner decodes from a byte slice, also without reflection.
package tagjson

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/value"
)

// Append appends the tagged form of v to b. A nil interface encodes as
// null. It fails only for a value kind outside the tagged shape.
func Append(b []byte, v value.Value) ([]byte, error) {
	switch x := v.(type) {
	case nil, value.Null:
		return append(b, `{"null":true}`...), nil
	case value.Bool:
		if x {
			return append(b, `{"bool":true}`...), nil
		}
		return append(b, `{"bool":false}`...), nil
	case value.Int:
		b = strconv.AppendInt(append(b, `{"int":`...), int64(x), 10)
		return append(b, '}'), nil
	case value.Float:
		return appendFloatValue(b, float64(x)), nil
	case value.String:
		return append(AppendString(append(b, `{"string":`...), string(x)), '}'), nil
	case value.List:
		if len(x) == 0 {
			return append(b, `{"isList":true}`...), nil
		}
		b = append(b, `{"list":[`...)
		for i, el := range x {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = Append(b, el); err != nil {
				return b, err
			}
		}
		return append(b, `],"isList":true}`...), nil
	case value.Map:
		if len(x) == 0 {
			return append(b, `{"isMap":true}`...), nil
		}
		b = append(b, `{"map":{`...)
		for i, k := range x.Keys() {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(AppendString(b, k), ':')
			var err error
			if b, err = Append(b, x[k]); err != nil {
				return b, err
			}
		}
		return append(b, `},"isMap":true}`...), nil
	case value.Node:
		return append(strconv.AppendInt(append(b, `{"node":`...), x.ID, 10), '}'), nil
	case value.Rel:
		return append(strconv.AppendInt(append(b, `{"rel":`...), x.ID, 10), '}'), nil
	case value.Path:
		// The wire has always written a path's relationships as a list,
		// empty for a zero-length path, and an empty node list as null.
		nodes, rels := x.Nodes, x.Rels
		if len(nodes) == 0 {
			nodes = nil
		}
		if rels == nil {
			rels = []int64{}
		}
		b = AppendIDs(append(b, `{"path":{"nodes":`...), nodes)
		return append(AppendIDs(append(b, `,"rels":`...), rels), "}}"...), nil
	default:
		return b, fmt.Errorf("tagjson: cannot encode %s value", v.Kind())
	}
}

// appendFloatValue appends a float's tagged form: a non-finite float
// goes under floatSpecial, since JSON has no literal for it.
func appendFloatValue(b []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(b, `{"floatSpecial":"nan"}`...)
	case math.IsInf(f, 1):
		return append(b, `{"floatSpecial":"+inf"}`...)
	case math.IsInf(f, -1):
		return append(b, `{"floatSpecial":"-inf"}`...)
	}
	return append(AppendFloat(append(b, `{"float":`...), f), '}')
}

// AppendIDs appends an id list as a JSON array, or null for a nil list,
// as encoding/json renders a slice.
func AppendIDs(b []byte, ids []int64) []byte {
	if ids == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, id, 10)
	}
	return append(b, ']')
}

// AppendFloat appends a finite float as encoding/json formats it: the
// shortest decimal that parses back to the same bits, in exponent form
// only below 1e-6 or from 1e21 on.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Shorten a two-digit negative exponent: e-07 becomes e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendString appends s as a JSON string literal, escaped as
// encoding/json escapes it: quotes, backslashes and control characters;
// <, > and & (HTML-safe); U+2028 and U+2029; and each byte of invalid
// UTF-8 as U+FFFD.
func AppendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), "\\ufffd"...)
		case r == 0x2028 || r == 0x2029: // line and paragraph separators
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
