package cypherclient

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"repro/cypher"
	"repro/internal/server"
	"repro/internal/value"
)

var codecStrings = []string{"", "x", "héllo 👋", `q"b\`, "<&>", "\x00\t\n\x1f", " ", "퟿", "\u2028\u2029", "</script>"}

func randomValue(rng *rand.Rand, depth int) Value {
	switch k := rng.Intn(10); {
	case k == 0:
		return value.NullValue
	case k == 1:
		return value.Bool(rng.Intn(2) == 0)
	case k == 2:
		ints := []int64{0, 255, 256, 1<<53 + 1, math.MaxInt64, math.MinInt64}
		if rng.Intn(2) == 0 {
			return value.Int(ints[rng.Intn(len(ints))])
		}
		return value.Int(rng.Int63() - rng.Int63())
	case k == 3:
		fs := []float64{0.1, 1e21, 1e-7, 5e-324, math.MaxFloat64, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
		if rng.Intn(2) == 0 {
			return value.Float(fs[rng.Intn(len(fs))])
		}
		return value.Float(math.Float64frombits(rng.Uint64()))
	case k == 4:
		return value.String(codecStrings[rng.Intn(len(codecStrings))])
	case k == 5 && depth > 0:
		l := value.List{}
		for i := rng.Intn(3); i > 0; i-- {
			l = append(l, randomValue(rng, depth-1))
		}
		return l
	case k == 6 && depth > 0:
		m := value.Map{}
		for i := rng.Intn(3); i > 0; i-- {
			m[codecStrings[rng.Intn(len(codecStrings))]] = randomValue(rng, depth-1)
		}
		return m
	case k == 7:
		return value.Node{ID: rng.Int63()}
	case k == 8:
		return value.Rel{ID: rng.Int63()}
	default:
		p := value.Path{Nodes: []int64{rng.Int63()}}
		for i := rng.Intn(3); i > 0; i-- {
			p.Nodes, p.Rels = append(p.Nodes, rng.Int63()), append(p.Rels, rng.Int63())
		}
		return p
	}
}

// same compares values exactly: floats by bits (any NaN equals any
// NaN), entities by id, containers recursively.
func same(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch x := a.(type) {
	case value.Float:
		fa, fb := float64(x), float64(b.(value.Float))
		return math.Float64bits(fa) == math.Float64bits(fb) || math.IsNaN(fa) && math.IsNaN(fb)
	case value.List:
		y := b.(value.List)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !same(x[i], y[i]) {
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
			if w, ok := y[k]; !ok || !same(v, w) {
				return false
			}
		}
		return true
	}
	return a.String() == b.String()
}

// TestCodecAgainstServer runs the client's and the server's message
// layers against each other without a network: requests the client
// encodes decode on the server to the same parameters, and replies the
// server encodes decode on the client to the same rows, columns and
// counters. The value bytes both write are held to encoding/json by the
// tagjson tests.
func TestCodecAgainstServer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		params := map[string]any{}
		for i := rng.Intn(4); i > 0; i-- {
			params[codecStrings[rng.Intn(len(codecStrings))]] = randomValue(rng, 3)
		}
		req, err := appendRequest(nil, &request{typ: "run", query: codecStrings[rng.Intn(len(codecStrings))], params: params, pull: pullBatch})
		if err != nil {
			t.Fatal(err)
		}
		frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(req))), req...)
		msg, err := server.ReadFrame(strings.NewReader(string(frame)), 0)
		if err != nil {
			t.Fatalf("server cannot read %s: %v", req, err)
		}
		if len(msg.Params) != len(params) {
			t.Fatalf("%s: server read %d params, want %d", req, len(msg.Params), len(params))
		}
		for k, wv := range msg.Params {
			v, err := server.DecodeValue(wv)
			if err != nil || !same(v, params[k].(Value)) {
				t.Fatalf("param %q: server read %v (%v), client sent %v", k, v, err, params[k])
			}
		}

		var rows [][]Value
		out := &server.Message{Type: "success", Columns: []string{"a", "b"}, More: rng.Intn(2) == 0, Plan: "p",
			Stats: &server.WireStats{NodesCreated: rng.Intn(3), LabelsRemoved: rng.Intn(3)}}
		for i := rng.Intn(4); i > 0; i-- {
			row := []Value{randomValue(rng, 3), randomValue(rng, 3)}
			rows = append(rows, row)
			wrow := make([]server.WireValue, len(row))
			for j, v := range row {
				if wrow[j], err = server.EncodeValue(v); err != nil {
					t.Fatal(err)
				}
			}
			out.Rows = append(out.Rows, wrow)
		}
		var buf strings.Builder
		if err := server.WriteFrame(&buf, out); err != nil {
			t.Fatal(err)
		}
		var got reply
		if err := decodeReply([]byte(buf.String()[4:]), &got); err != nil {
			t.Fatalf("client cannot read %s: %v", buf.String()[4:], err)
		}
		if got.typ != "success" || !got.hasColumns || len(got.columns) != 2 || got.more != out.More || got.plan != "p" ||
			got.stats.NodesCreated != out.Stats.NodesCreated || got.stats.LabelsRemoved != out.Stats.LabelsRemoved {
			t.Fatalf("client read %+v from %s", got, buf.String()[4:])
		}
		if len(got.rows) != len(rows) {
			t.Fatalf("client read %d rows, want %d", len(got.rows), len(rows))
		}
		for i := range rows {
			for j := range rows[i] {
				if !same(got.rows[i][j], rows[i][j]) {
					t.Fatalf("row %d col %d: client read %v, server sent %v", i, j, got.rows[i][j], rows[i][j])
				}
			}
		}
	}
}

// FuzzReplyDecode throws arbitrary bytes at the client's reply decoder,
// the only parser in the client fed by a remote peer. It must never
// panic, and rows it accepts must survive the server's encoder and the
// client's decoder again unchanged.
func FuzzReplyDecode(f *testing.F) {
	f.Add([]byte(`{"type":"success","server":"cypherd","dialect":"revised"}`))
	f.Add([]byte(`{"type":"failure","code":"SyntaxError","message":"bad A"}`))
	f.Add([]byte(`{"type":"success","columns":["x"],"rows":[[{"int":1}],[{"floatSpecial":"nan"}]],"more":true,"stats":{"nodesCreated":2}}`))
	f.Add([]byte(`{"type":"success","columns":["p"],"rows":[[{"path":{"nodes":[1,2],"rels":[3]}},{"isMap":true,"map":{"k":{"isList":true,"list":[{"null":true}]}}}]]}`))
	f.Add([]byte(`{"type":"success","rows":[[{"string":"😀\ud800"}]]}`))
	f.Add([]byte(`{"type":"success","rows":[[{"string":"\u003c/script\u003e\u2028"}]]}`))
	f.Add([]byte(`{"rows":[[{"int":1,"bool":true}]],"extra":[1,{"a":null}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var r reply
		if err := decodeReply(body, &r); err != nil {
			return
		}
		if len(r.rows) == 0 {
			return
		}
		var buf strings.Builder
		msg := &server.Message{Type: "success", Rows: make([][]server.WireValue, len(r.rows))}
		for i, row := range r.rows {
			msg.Rows[i] = make([]server.WireValue, len(row))
			for j, v := range row {
				wv, err := server.EncodeValue(v)
				if err != nil {
					t.Fatalf("decoded value %v does not encode: %v", v, err)
				}
				msg.Rows[i][j] = wv
			}
		}
		if err := server.WriteFrame(&buf, msg); err != nil {
			t.Fatal(err)
		}
		var again reply
		if err := decodeReply([]byte(buf.String()[4:]), &again); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		for i := range r.rows {
			for j := range r.rows[i] {
				if !same(r.rows[i][j], again.rows[i][j]) {
					t.Fatalf("row %d col %d: %v then %v", i, j, r.rows[i][j], again.rows[i][j])
				}
			}
		}
	})
}

// TestServedPointReadAllocs bounds what the wire adds to a served point
// read: heap allocations per statement over a loopback connection, both
// peers counted, less those of the same statement run on a session.
// The struct-and-map codecs this replaced added 115 (194 served against
// 79 on a session); the typed codecs add 15. The session's own count
// (47) is bounded too, so the engine's per-statement fixed cost cannot
// grow unnoticed.
func TestServedPointReadAllocs(t *testing.T) {
	db := cypher.Open()
	for _, q := range []string{`UNWIND range(0, 999) AS i CREATE (:User{id: i, name: 'u' + toString(i)})`, `CREATE INDEX ON :User(id)`} {
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess := db.Session()
	defer sess.Close()

	const q = `MATCH (u:User{id: $id}) RETURN u.name AS name`
	i := 0
	exec := func(run func(map[string]any) error) func() {
		return func() {
			i = (i + 1) % 1000
			if err := run(map[string]any{"id": i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	served := testing.AllocsPerRun(500, exec(func(p map[string]any) error { _, err := c.Exec(q, p); return err }))
	local := testing.AllocsPerRun(500, exec(func(p map[string]any) error { _, err := sess.Exec(q, p); return err }))
	const bound, localBound = 30, 47
	wire := served - local
	t.Logf("the wire adds %.0f allocations per point read (%.0f served, %.0f on a session)", wire, served, local)
	if wire > bound {
		t.Errorf("want at most %d", bound)
	}
	if local > localBound {
		t.Errorf("a session point read makes %.0f allocations, want at most %d", local, localBound)
	}
}
