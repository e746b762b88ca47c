package value

import (
	"math"
	"strconv"
)

// Key renders a canonical encoding of v such that Key(a) == Key(b) exactly
// when Equivalent(a, b). It is used for property-index buckets, the
// Grouping MERGE strategy and the MERGE SAME collapse pass; the barriers
// that group every input row (DISTINCT, aggregation keys, count(DISTINCT
// …)) append the same encoding to a reused buffer with AppendKey and
// AppendKeyList instead.
//
// Numeric values that are equivalent across Int/Float (e.g. 1 and 1.0)
// share a key; NaN has its own key; null has its own key.
func Key(v Value) string {
	return string(AppendKey(make([]byte, 0, 64), v))
}

// AppendKeyList appends the canonical key of a tuple of values to b and
// returns the extended buffer: each element's Key followed by a unit
// separator, so two tuples share a key exactly when they are
// element-wise equivalent. A caller that reuses b across rows encodes a
// grouping key without allocating, and can look it up in a map with
// m[string(b)], which does not allocate either.
func AppendKeyList(b []byte, vs []Value) []byte {
	for _, v := range vs {
		b = AppendKey(b, v)
		b = append(b, 0x1f) // unit separator between tuple elements
	}
	return b
}

// AppendKey appends Key(v) to b and returns the extended buffer.
func AppendKey(b []byte, v Value) []byte {
	if v == nil {
		return append(b, "0:"...)
	}
	switch x := v.(type) {
	case Null:
		b = append(b, "0:"...)
	case Bool:
		if x {
			b = append(b, "b:1"...)
		} else {
			b = append(b, "b:0"...)
		}
	case Int:
		b = appendNumericKey(b, float64(x), int64(x), true)
	case Float:
		f := float64(x)
		if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 && !math.IsInf(f, 0) {
			b = appendNumericKey(b, f, int64(f), true)
		} else {
			b = appendNumericKey(b, f, 0, false)
		}
	case String:
		b = append(b, "s:"...)
		b = strconv.AppendQuote(b, string(x))
	case Node:
		b = append(b, "n:"...)
		b = strconv.AppendInt(b, x.ID, 10)
	case Rel:
		b = append(b, "r:"...)
		b = strconv.AppendInt(b, x.ID, 10)
	case Path:
		b = append(b, "p:["...)
		for i, n := range x.Nodes {
			if i > 0 {
				b = append(b, ',')
				b = strconv.AppendInt(b, x.Rels[i-1], 10)
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, n, 10)
		}
		b = append(b, ']')
	case List:
		b = append(b, "l:["...)
		for i, e := range x {
			if i > 0 {
				b = append(b, ';')
			}
			b = AppendKey(b, e)
		}
		b = append(b, ']')
	case Map:
		b = append(b, "m:{"...)
		for i, k := range x.Keys() {
			if i > 0 {
				b = append(b, ';')
			}
			b = strconv.AppendQuote(b, k)
			b = append(b, '=')
			b = AppendKey(b, x[k])
		}
		b = append(b, '}')
	}
	return b
}

func appendNumericKey(b []byte, f float64, i int64, integral bool) []byte {
	switch {
	case math.IsNaN(f):
		return append(b, "d:nan"...)
	case math.IsInf(f, 1):
		return append(b, "d:+inf"...)
	case math.IsInf(f, -1):
		return append(b, "d:-inf"...)
	case integral:
		return strconv.AppendInt(append(b, "d:"...), i, 10)
	default:
		return strconv.AppendUint(append(b, "d:"...), math.Float64bits(f), 16)
	}
}

// MapKey renders a canonical key for a property map, with keys mapped to
// null treated as absent. This is the notion of "same properties" used by
// the collapsibility relations (Definitions 1 and 2 of the paper), where
// iota(n, k) = null means key k is not present.
func MapKey(m Map) string {
	b := []byte{'{'}
	first := true
	for _, k := range m.Keys() {
		if IsNull(m[k]) {
			continue
		}
		if !first {
			b = append(b, ';')
		}
		first = false
		b = strconv.AppendQuote(b, k)
		b = append(b, '=')
		b = AppendKey(b, m[k])
	}
	return string(append(b, '}'))
}
