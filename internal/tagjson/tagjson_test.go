package tagjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/value"
)

// ref is the tagged shape as the struct-based codecs declared it for
// encoding/json. The tests use it as the oracle: Append must write the
// bytes json.Marshal writes for it, and Scanner.Value must accept what
// json.Unmarshal into it (then refDecode) accepts, with the same result.
type ref struct {
	Null   bool           `json:"null,omitempty"`
	Bool   *bool          `json:"bool,omitempty"`
	Int    *int64         `json:"int,omitempty"`
	Float  *float64       `json:"float,omitempty"`
	FloatS string         `json:"floatSpecial,omitempty"`
	Str    *string        `json:"string,omitempty"`
	List   []ref          `json:"list,omitempty"`
	IsList bool           `json:"isList,omitempty"`
	Map    map[string]ref `json:"map,omitempty"`
	IsMap  bool           `json:"isMap,omitempty"`
	Node   *int64         `json:"node,omitempty"`
	Rel    *int64         `json:"rel,omitempty"`
	Path   *refPath       `json:"path,omitempty"`
}

type refPath struct {
	Nodes []int64 `json:"nodes"`
	Rels  []int64 `json:"rels"`
}

func refEncode(v value.Value) ref {
	switch x := v.(type) {
	case nil, value.Null:
		return ref{Null: true}
	case value.Bool:
		b := bool(x)
		return ref{Bool: &b}
	case value.Int:
		i := int64(x)
		return ref{Int: &i}
	case value.Float:
		f := float64(x)
		switch {
		case math.IsNaN(f):
			return ref{FloatS: "nan"}
		case math.IsInf(f, 1):
			return ref{FloatS: "+inf"}
		case math.IsInf(f, -1):
			return ref{FloatS: "-inf"}
		}
		return ref{Float: &f}
	case value.String:
		s := string(x)
		return ref{Str: &s}
	case value.List:
		out := ref{IsList: true, List: make([]ref, len(x))}
		for i, el := range x {
			out.List[i] = refEncode(el)
		}
		return out
	case value.Map:
		out := ref{IsMap: true, Map: make(map[string]ref, len(x))}
		for k, el := range x {
			out.Map[k] = refEncode(el)
		}
		return out
	case value.Node:
		return ref{Node: &x.ID}
	case value.Rel:
		return ref{Rel: &x.ID}
	case value.Path:
		p := &refPath{Nodes: append([]int64(nil), x.Nodes...), Rels: append([]int64(nil), x.Rels...)}
		if p.Rels == nil {
			p.Rels = []int64{}
		}
		return ref{Path: p}
	}
	panic(fmt.Sprintf("unexpected %T", v))
}

func refDecode(r ref) (value.Value, error) {
	switch {
	case r.Null:
		return value.NullValue, nil
	case r.Bool != nil:
		return value.Bool(*r.Bool), nil
	case r.Int != nil:
		return value.Int(*r.Int), nil
	case r.Float != nil:
		return value.Float(*r.Float), nil
	case r.FloatS != "":
		switch r.FloatS {
		case "nan":
			return value.Float(math.NaN()), nil
		case "+inf":
			return value.Float(math.Inf(1)), nil
		case "-inf":
			return value.Float(math.Inf(-1)), nil
		}
		return nil, errors.New("unknown float special")
	case r.Str != nil:
		return value.String(*r.Str), nil
	case r.IsList:
		out := make(value.List, len(r.List))
		for i, el := range r.List {
			v, err := refDecode(el)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case r.IsMap:
		out := make(value.Map, len(r.Map))
		for k, el := range r.Map {
			v, err := refDecode(el)
			if err != nil {
				return nil, err
			}
			out[k] = v
		}
		return out, nil
	case r.Node != nil:
		return value.Node{ID: *r.Node}, nil
	case r.Rel != nil:
		return value.Rel{ID: *r.Rel}, nil
	case r.Path != nil:
		if len(r.Path.Nodes) != len(r.Path.Rels)+1 {
			return nil, errors.New("malformed path")
		}
		return value.Path{Nodes: r.Path.Nodes, Rels: r.Path.Rels}, nil
	}
	return nil, errors.New("no tag")
}

// trickyStrings exercise every escape rule of the string encoder.
var trickyStrings = []string{
	"", "plain", `quote " and \ backslash`, "tab\tnl\ncr\r\b\f", "\x00\x01\x1f\x7f",
	"<script>&amp;</script>", "héllo wörld 👋", "  ", "bad \xff utf8 \xc3", "\xed\xa0\x80",
	"/slash/", "é́",
}

var trickyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-6, 1e-7, 9.99e-7, 1e20, 1e21, 1.5e300, -2.5e-300,
	math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125, math.NaN(), math.Inf(1), math.Inf(-1),
}

var trickyInts = []int64{0, 1, -1, 255, 256, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}

// randomValue builds a random value of any tagged kind.
func randomValue(rng *rand.Rand, depth int) value.Value {
	k := rng.Intn(11)
	if depth <= 0 && k >= 6 && k <= 7 {
		k = 2
	}
	switch k {
	case 0:
		return value.NullValue
	case 1:
		return value.Bool(rng.Intn(2) == 0)
	case 2:
		if rng.Intn(2) == 0 {
			return value.Int(trickyInts[rng.Intn(len(trickyInts))])
		}
		return value.Int(rng.Int63() - rng.Int63())
	case 3:
		if rng.Intn(2) == 0 {
			return value.Float(trickyFloats[rng.Intn(len(trickyFloats))])
		}
		return value.Float(math.Float64frombits(rng.Uint64()))
	case 4:
		return value.String(randomString(rng))
	case 5:
		return value.Node{ID: rng.Int63()}
	case 6:
		l := make(value.List, rng.Intn(4))
		for i := range l {
			l[i] = randomValue(rng, depth-1)
		}
		return l
	case 7:
		m := value.Map{}
		for i := rng.Intn(4); i > 0; i-- {
			m[randomString(rng)] = randomValue(rng, depth-1)
		}
		return m
	case 8:
		return value.Rel{ID: rng.Int63()}
	default:
		n := rng.Intn(3)
		p := value.Path{Nodes: make([]int64, n+1)}
		for i := range p.Nodes {
			p.Nodes[i] = rng.Int63n(100)
		}
		for i := 0; i < n; i++ {
			p.Rels = append(p.Rels, rng.Int63n(100))
		}
		return p
	}
}

func randomString(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return trickyStrings[rng.Intn(len(trickyStrings))]
	}
	b := make([]byte, rng.Intn(8))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

// bitIdentical compares values exactly: floats by bits (any NaN equals
// any NaN), containers recursively.
func bitIdentical(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch x := a.(type) {
	case value.Float:
		fa, fb := float64(x), float64(b.(value.Float))
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return math.IsNaN(fa) && math.IsNaN(fb)
		}
		return math.Float64bits(fa) == math.Float64bits(fb)
	case value.List:
		y := b.(value.List)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !bitIdentical(x[i], y[i]) {
				return false
			}
		}
		return true
	case value.Map:
		y := b.(value.Map)
		if len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !bitIdentical(v, w) {
				return false
			}
		}
		return true
	case value.Path:
		y := b.(value.Path)
		return fmt.Sprint(x.Nodes, x.Rels) == fmt.Sprint(y.Nodes, y.Rels)
	}
	return a.String() == b.String()
}

// TestAppendMatchesEncodingJSON requires Append to write, for every
// value, exactly the bytes encoding/json writes for its struct form.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		v := randomValue(rng, 3)
		want, err := json.Marshal(refEncode(v))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Append([]byte("prefix"), v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("Append(%v):\n got %s\nwant %s", v, got[len("prefix"):], want)
		}
	}
	for _, s := range trickyStrings {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestValueRoundTrip requires every value to survive Append then
// Scanner.Value bit-identically, and invalid UTF-8 to decode as
// encoding/json decodes it.
func TestValueRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5000; trial++ {
		v := randomValue(rng, 3)
		b, err := Append(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScanner(b)
		got, err := s.Value()
		if err == nil {
			err = s.End()
		}
		if err != nil {
			t.Fatalf("decode %s: %v", b, err)
		}
		var r ref
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		want, err := refDecode(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(got, want) {
			t.Fatalf("decode %s = %v, want %v", b, got, want)
		}
	}
}

// TestValueMatchesEncodingJSON feeds Scanner.Value tagged objects that
// are odd but possible — several tags, null tags, unknown members,
// invalid values under a tag that loses — and requires the answer the
// struct decoders gave: accepted or not, and the same value.
func TestValueMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		`{"int":7}`, `{"bool":true,"int":1}`, `{"int":1,"bool":false}`, `{"null":false,"int":3}`,
		`{"null":true,"null":false,"int":2}`, `{"int":1,"int":null}`, `{"int":null,"float":2.5}`,
		`{"isList":true}`, `{"isList":true,"list":null}`, `{"list":[{"int":1}]}`, `{"isList":false,"list":[{"int":1}],"rel":4}`,
		`{"int":1,"list":[{"bogus":1}]}`, `{"isList":true,"list":[{"bogus":1}]}`, `{"isList":true,"list":[null]}`,
		`{"int":1,"map":{"a":null}}`, `{"isMap":true,"map":{"a":null}}`, `{"isMap":true,"map":{"a":{"string":"x"},"b":{"int":2}}}`,
		`{"floatSpecial":""}`, `{"floatSpecial":"bogus"}`, `{"floatSpecial":"bogus","int":1}`, `{"floatSpecial":null,"int":1}`,
		`{"path":{"nodes":[1,2],"rels":[9]}}`, `{"path":{"nodes":[1],"rels":[9]}}`, `{"path":{"nodes":[1,null],"rels":[null]}}`,
		`{"path":{"nodes":[1]}}`, `{"path":null,"node":3}`, `{"path":{"nodes":[1],"x":[[]]}}`, `{"int":1,"path":{"nodes":[]}}`,
		`{"unknown":[1,{"a":true}],"string":"x"}`, `{}`, `null`, `{"int":1.5}`, `{"int":"1"}`, `{"int":1e2}`, `{"int":-0}`,
		`{"int":9223372036854775807}`, `{"int":9223372036854775808}`, `{"int":-9223372036854775808}`, `{"float":1e400}`,
		`{"float":1e-400}`, `{"float":-0.0}`, `{"string":"😀 \ud800 \udc00x é"}`, `{"string":"a\/b"}`, `{"string":"\ud83d\ude00 \uD83D\uDE00x"}`,
		`{"string":"\x"}`, `{"string":"\u12"}`, `{"null":1}`, `{"isList":"yes"}`, `{"list":{},"isList":true}`,
		`{"int":1,}`, `{"int" 1}`, `{"int":01}`, `{"int":1}x`, ` { "int" : 1 } `, `{"int":-}`, `{"float":1.}`, `{"float":.5}`,
		`{"node":3,"rel":4}`, `{"rel":-1}`, `{"isMap":true,"isList":true,"list":[{"int":1}],"map":{}}`,
	}
	for _, c := range cases {
		var r ref
		wantErr := json.Unmarshal([]byte(c), &r)
		var want value.Value
		if wantErr == nil {
			want, wantErr = refDecode(r)
		}
		s := NewScanner([]byte(c))
		got, err := s.Value()
		if err == nil {
			err = s.End()
		}
		if (err == nil) != (wantErr == nil) {
			t.Errorf("%s: scanner err %v, encoding/json err %v", c, err, wantErr)
			continue
		}
		if err == nil && !bitIdentical(got, want) {
			t.Errorf("%s: scanner %v, encoding/json %v", c, got, want)
		}
	}
}

// TestScannerDepthLimit checks that deep nesting is an error, not a
// stack overflow, and that nesting up to the limit is fine.
func TestScannerDepthLimit(t *testing.T) {
	deep := strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1)
	if err := NewScanner([]byte(deep)).Skip(); err == nil {
		t.Error("nesting past the limit accepted")
	}
	ok := strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth)
	if err := NewScanner([]byte(ok)).Skip(); err != nil {
		t.Errorf("nesting at the limit: %v", err)
	}
	list := strings.Repeat(`{"isList":true,"list":[`, maxDepth) + strings.Repeat("]}", maxDepth)
	if _, err := NewScanner([]byte(list)).Value(); err == nil {
		t.Error("value nesting past the limit accepted")
	}
}

// FuzzScannerMatchesEncodingJSON requires the scanner's primitives to
// agree with encoding/json on arbitrary input: Skip accepts exactly the
// valid JSON texts, and String, Int and Float accept what unmarshalling
// into a string, an int64 and a float64 accepts, with the same result.
func FuzzScannerMatchesEncodingJSON(f *testing.F) {
	for _, seed := range []string{
		`"abc"`, `"aé😀\n"`, `"\ud800"`, "\"\xff\"", `"\u0000"`, `12`, `-0`, `1.5e-3`, `1e400`,
		`9223372036854775808`, `{"a":[1,2,{"b":null}]}`, `[true,false,null]`, `  "x"  `, `"x" y`, `01`, `[1,]`,
		`{"a" 1}`, `"\/"`, `"\x"`, "\"\t\"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewScanner(data)
		err := s.Skip()
		if err == nil {
			err = s.End()
		}
		if (err == nil) != json.Valid(data) {
			t.Fatalf("Skip %q: err %v, json.Valid %v", data, err, json.Valid(data))
		}
		if bytes.Equal(bytes.TrimSpace(data), []byte("null")) {
			return // encoding/json reads null into anything as "leave it be"
		}
		var ws string
		werr := json.Unmarshal(data, &ws)
		s = NewScanner(data)
		gs, err := s.String()
		if err == nil {
			err = s.End()
		}
		if (err == nil) != (werr == nil) || (err == nil && gs != ws) {
			t.Fatalf("String %q: got %q, %v; encoding/json %q, %v", data, gs, err, ws, werr)
		}
		var wi int64
		werr = json.Unmarshal(data, &wi)
		s = NewScanner(data)
		gi, err := s.Int()
		if err == nil {
			err = s.End()
		}
		if (err == nil) != (werr == nil) || (err == nil && gi != wi) {
			t.Fatalf("Int %q: got %d, %v; encoding/json %d, %v", data, gi, err, wi, werr)
		}
		var wf float64
		werr = json.Unmarshal(data, &wf)
		s = NewScanner(data)
		gf, err := s.Float()
		if err == nil {
			err = s.End()
		}
		if (err == nil) != (werr == nil) || (err == nil && math.Float64bits(gf) != math.Float64bits(wf)) {
			t.Fatalf("Float %q: got %v, %v; encoding/json %v, %v", data, gf, err, wf, werr)
		}
	})
}

// benchRow is a typical served row: an id, a name and a short list.
var benchRow = value.List{value.Int(123456), value.String("user name"), value.List{value.Float(0.25), value.NullValue}}

func BenchmarkAppend(b *testing.B) {
	b.ReportAllocs()
	var buf []byte
	for b.Loop() {
		buf, _ = Append(buf[:0], benchRow)
	}
}

func BenchmarkValue(b *testing.B) {
	data, err := Append(nil, benchRow)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewScanner(data).Value(); err != nil {
			b.Fatal(err)
		}
	}
}
