package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/cypher"
	"repro/internal/value"
)

// countingWriter counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameOneWrite checks WriteFrame hands each frame, header and
// body together, to the writer in a single Write, and that the frame
// reads back intact.
func TestWriteFrameOneWrite(t *testing.T) {
	rows := make([][]WireValue, 100)
	for i := range rows {
		rows[i] = []WireValue{intWire(int64(i)), strWire("row")}
	}
	for _, msg := range []*Message{
		{Type: MsgHello},
		{Type: MsgRun, Query: "MATCH (n) RETURN n", Pull: 4096},
		{Type: MsgSuccess, Columns: []string{"i", "s"}, Rows: rows, More: true},
	} {
		var w countingWriter
		if err := WriteFrame(&w, msg); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("%s frame: %d writes, want 1", msg.Type, w.writes)
		}
		back, err := ReadFrame(&w.Buffer, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if back.Type != msg.Type || back.Pull != msg.Pull || len(back.Rows) != len(msg.Rows) || back.More != msg.More {
			t.Errorf("round trip: %+v, want %+v", back, msg)
		}
		if w.Len() != 0 {
			t.Errorf("%s frame: %d trailing bytes", msg.Type, w.Len())
		}
	}
}

var wireStrings = []string{"", "x", "héllo 👋", `q"b\`, "<&>", "\x00\t\n", "bad \xff", " ", "MATCH (n) RETURN n"}

// randomWire builds a random value of any kind the wire carries.
func randomWire(rng *rand.Rand, depth int) value.Value {
	switch k := rng.Intn(10); {
	case k == 0:
		return value.NullValue
	case k == 1:
		return value.Bool(rng.Intn(2) == 0)
	case k == 2:
		return value.Int(rng.Int63() - rng.Int63())
	case k == 3:
		fs := []float64{0.5, 1e21, 1e-7, math.Copysign(0, -1), math.NaN(), math.Inf(-1)}
		if rng.Intn(2) == 0 {
			return value.Float(fs[rng.Intn(len(fs))])
		}
		return value.Float(rng.NormFloat64() * 1e6)
	case k == 4:
		return value.String(wireStrings[rng.Intn(len(wireStrings))])
	case k == 5 && depth > 0:
		l := value.List{}
		for i := rng.Intn(3); i > 0; i-- {
			l = append(l, randomWire(rng, depth-1))
		}
		return l
	case k == 6 && depth > 0:
		m := value.Map{}
		for i := rng.Intn(3); i > 0; i-- {
			m[wireStrings[rng.Intn(len(wireStrings))]] = randomWire(rng, depth-1)
		}
		return m
	case k == 7:
		return value.Node{ID: rng.Int63()}
	case k == 8:
		return value.Rel{ID: rng.Int63()}
	default:
		return value.Path{Nodes: []int64{1, 2}, Rels: []int64{rng.Int63()}}
	}
}

// randomMessage builds a message with random fields set. Its rows are
// both WireValues and, in values, the runtime values they encode.
func randomMessage(t *testing.T, rng *rand.Rand) *Message {
	str := func() string {
		if rng.Intn(2) == 0 {
			return ""
		}
		return wireStrings[rng.Intn(len(wireStrings))]
	}
	msg := &Message{Type: MsgRun, Query: str(), Mode: str(), N: rng.Intn(3) - 1, Pull: rng.Intn(3) * 4096,
		Server: str(), Dialect: str(), More: rng.Intn(2) == 0, Plan: str(), Code: str(), Error: str()}
	if rng.Intn(2) == 0 {
		msg.Type = str() + "t"
	}
	if rng.Intn(2) == 0 {
		msg.Params = map[string]WireValue{}
		for i := rng.Intn(3); i >= 0; i-- {
			msg.Params[str()] = encodeOrFatal(t, randomWire(rng, 2))
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		msg.Columns = append(msg.Columns, str())
	}
	for i := rng.Intn(3); i > 0; i-- {
		var row []WireValue
		var vals []value.Value
		for j := rng.Intn(3); j >= 0; j-- {
			v := randomWire(rng, 2)
			row, vals = append(row, encodeOrFatal(t, v)), append(vals, v)
		}
		msg.Rows, msg.values = append(msg.Rows, row), append(msg.values, vals)
	}
	if rng.Intn(2) == 0 {
		msg.Stats = &WireStats{NodesCreated: rng.Intn(2), RelsDeleted: rng.Intn(2), PropsSet: rng.Intn(3), LabelsRemoved: rng.Intn(2)}
	}
	return msg
}

func encodeOrFatal(t *testing.T, v value.Value) WireValue {
	t.Helper()
	w, err := EncodeValue(v)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestFrameMatchesEncodingJSON requires the hand-written codec to write
// the bytes encoding/json writes for a Message — whether its rows come
// as WireValues or, as the server sends them, as runtime values — and
// to read those bytes back to the same message.
func TestFrameMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		msg := randomMessage(t, rng)
		want, err := json.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		values := msg.values
		msg.values = nil
		got, err := appendMessage(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("WireValue rows:\n got %s\nwant %s", got, want)
		}
		msg.values, msg.Rows = values, nil
		if got, err = appendMessage(nil, msg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("runtime-value rows:\n got %s\nwant %s", got, want)
		}

		frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(want))), want...)
		back, err := ReadFrame(bytes.NewReader(frame), DefaultMaxFrame)
		if err != nil {
			t.Fatalf("read %s: %v", want, err)
		}
		var ref Message
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		again, _ := json.Marshal(back)
		if refBytes, _ := json.Marshal(&ref); !bytes.Equal(again, refBytes) {
			t.Fatalf("read back:\n got %s\nwant %s", again, refBytes)
		}
	}
}

// TestAppendWireValueAsIs checks that WriteFrame sends a WireValue as
// built, even one the server will refuse, so tests can probe the
// server's checks.
func TestAppendWireValueAsIs(t *testing.T) {
	one, yes := int64(1), true
	for _, w := range []WireValue{
		{FloatS: "bogus"},
		{Bool: &yes, Int: &one},
		{Path: &WirePath{Nodes: []int64{1}}},
		{IsList: true, List: []WireValue{{}}},
	} {
		want, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendWire(nil, w)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("appendWire(%+v) = %s, %v; want %s", w, got, err, want)
		}
	}
	nan := math.NaN()
	if _, err := appendWire(nil, WireValue{Float: &nan}); err == nil {
		t.Error("a NaN float tag encoded; want an error, as encoding/json gives")
	}
}

// TestRunParamsDecodeSeparately checks the split between frame and
// parameter errors: bad JSON anywhere, or params that are not an
// object, make a malformed frame; a params entry that is valid JSON but
// not a tagged value is left for the run to refuse with
// InvalidParameter.
func TestRunParamsDecodeSeparately(t *testing.T) {
	read := func(body string) (*Message, error) {
		var msg Message
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		_, err := readFrame(bytes.NewReader(append(frame, body...)), 0, nil, &msg)
		return &msg, err
	}
	for _, body := range []string{`{"type":"run","params":5}`, `{"type":"run","params":{"x":{"int":}}}`, `{"type":"run","params":[]}`} {
		if _, err := read(body); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("%s: err %v, want ErrMalformedFrame", body, err)
		}
	}
	for _, body := range []string{`{"type":"run","params":{"x":5}}`, `{"type":"run","params":{"x":{"floatSpecial":"bogus"}}}`, `{"type":"run","params":{"x":null}}`} {
		msg, err := read(body)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if _, err := decodeParams(msg.rawParams); err == nil {
			t.Errorf("%s: parameters decoded", body)
		}
	}

	db := cypher.Open()
	_, addr := startServer(t, db, Options{})
	w := dialWire(t, addr)
	w.hello()
	body := `{"type":"run","query":"RETURN $x AS x","params":{"x":5}}`
	if _, err := w.nc.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)); err != nil {
		t.Fatal(err)
	}
	if got := w.recv(); got.Type != MsgFailure || got.Code != CodeInvalidParameter {
		t.Fatalf("untagged parameter: reply %+v, want InvalidParameter", got)
	}
	w.send(&Message{Type: MsgRun, Query: "RETURN 1 AS x", Pull: 1})
	if got := w.recv(); got.Type != MsgSuccess {
		t.Fatalf("connection unusable after InvalidParameter: %+v", got)
	}
}
