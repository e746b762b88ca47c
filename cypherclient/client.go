// Package cypherclient is a client for the cypherd wire protocol: a
// deliberately independent second implementation of the
// length-prefixed JSON framing and tagged value codec (the first lives
// in the server), so protocol tests exercise two implementations
// against each other rather than one implementation against itself.
//
// A Conn wraps one TCP connection / server session. It is NOT safe for
// concurrent use; open one Conn per goroutine (mirroring the one
// session per connection model of the server).
//
//	c, err := cypherclient.Dial("127.0.0.1:7777")
//	res, err := c.Exec(`MATCH (n:User) WHERE n.id = $id RETURN n.name`,
//	    map[string]any{"id": 42})
//	for _, row := range res.Rows { ... }
package cypherclient

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"time"

	"repro/internal/value"
)

// Value is a Cypher runtime value as returned in result rows.
type Value = value.Value

// maxFrame bounds reply frames the client will accept.
const maxFrame = 64 << 20

// pullBatch is how many rows a RUN asks for inline, and how many rows
// each following PULL requests.
const pullBatch = 4096

// ServerError is a failure frame from the server, carrying its
// machine-readable code.
type ServerError struct {
	// Code is the server's failure code (e.g. "SyntaxError",
	// "ServerBusy", "StatementTimeout").
	Code string
	// Message is the human-readable description.
	Message string
}

// Error implements error.
func (e *ServerError) Error() string { return e.Code + ": " + e.Message }

// UpdateStats counts the effects of a statement or transaction.
type UpdateStats struct {
	// NodesCreated counts nodes created.
	NodesCreated int
	// NodesDeleted counts nodes deleted.
	NodesDeleted int
	// RelsCreated counts relationships created.
	RelsCreated int
	// RelsDeleted counts relationships deleted.
	RelsDeleted int
	// PropsSet counts properties set or removed.
	PropsSet int
	// LabelsAdded counts labels added.
	LabelsAdded int
	// LabelsRemoved counts labels removed.
	LabelsRemoved int
}

// Result is the outcome of an executed statement.
type Result struct {
	// Columns are the output column names.
	Columns []string
	// Rows are the result records in column order.
	Rows [][]Value
	// Stats are the statement's update counters.
	Stats UpdateStats
}

// Conn is one client connection to a cypherd server.
type Conn struct {
	nc      net.Conn
	r       *bufio.Reader
	server  string
	dialect string
}

// Dial connects to a cypherd server at addr (host:port) and performs
// the protocol handshake.
func Dial(addr string) (*Conn, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Conn{nc: nc, r: bufio.NewReader(nc)}
	reply, err := c.roundTrip(map[string]any{"type": "hello"})
	if err != nil {
		nc.Close()
		return nil, err
	}
	c.server, _ = reply["server"].(string)
	c.dialect, _ = reply["dialect"].(string)
	return c, nil
}

// ServerInfo reports the server identification and dialect from the
// handshake.
func (c *Conn) ServerInfo() (server, dialect string) { return c.server, c.dialect }

// Exec runs a statement with parameters (native Go values or Values)
// and fetches the full result. Transaction-control statement texts
// (BEGIN/COMMIT/ROLLBACK) are accepted and return an empty result.
func (c *Conn) Exec(query string, params map[string]any) (*Result, error) {
	return c.run(query, params, "")
}

// Explain returns the statement's rendered operator plan without
// executing it.
func (c *Conn) Explain(query string) (string, error) {
	msg := map[string]any{"type": "run", "query": query, "mode": "explain"}
	reply, err := c.roundTrip(msg)
	if err != nil {
		return "", err
	}
	plan, _ := reply["plan"].(string)
	return plan, nil
}

// Profile executes the statement and returns its result together with
// the counter-annotated operator plan.
func (c *Conn) Profile(query string, params map[string]any) (*Result, string, error) {
	res, plan, err := c.runFull(query, params, "profile")
	return res, plan, err
}

func (c *Conn) run(query string, params map[string]any, mode string) (*Result, error) {
	res, _, err := c.runFull(query, params, mode)
	return res, err
}

// runFull sends one RUN that asks for the first pullBatch rows inline,
// then PULLs only while the server reports more rows buffered. A result
// of at most pullBatch rows costs one request frame.
func (c *Conn) runFull(query string, params map[string]any, mode string) (*Result, string, error) {
	msg := map[string]any{"type": "run", "query": query, "pull": pullBatch}
	if mode != "" {
		msg["mode"] = mode
	}
	if len(params) > 0 {
		wp := make(map[string]any, len(params))
		for k, v := range params {
			cv, err := value.FromGo(v)
			if err != nil {
				return nil, "", fmt.Errorf("parameter $%s: %w", k, err)
			}
			ev, err := encodeValue(cv)
			if err != nil {
				return nil, "", fmt.Errorf("parameter $%s: %w", k, err)
			}
			wp[k] = ev
		}
		msg["params"] = wp
	}
	reply, err := c.roundTrip(msg)
	if err != nil {
		return nil, "", err
	}
	plan, _ := reply["plan"].(string)
	res := &Result{Stats: decodeStats(reply["stats"])}
	cols, hasCols := reply["columns"].([]any)
	if !hasCols {
		// Transaction control (or explain): no result to pull.
		return res, plan, nil
	}
	for _, col := range cols {
		s, ok := col.(string)
		if !ok {
			return nil, "", errors.New("cypherclient: malformed columns in reply")
		}
		res.Columns = append(res.Columns, s)
	}
	for {
		if err := res.appendRows(reply["rows"]); err != nil {
			return nil, "", err
		}
		if more, _ := reply["more"].(bool); !more {
			return res, plan, nil
		}
		if reply, err = c.roundTrip(map[string]any{"type": "pull", "n": pullBatch}); err != nil {
			return nil, "", err
		}
	}
}

// appendRows decodes the rows array of a run or pull reply onto res.
func (res *Result) appendRows(raw any) error {
	rows, _ := raw.([]any)
	for _, r := range rows {
		cells, ok := r.([]any)
		if !ok {
			return errors.New("cypherclient: malformed row in reply")
		}
		row := make([]Value, len(cells))
		for j, cell := range cells {
			v, err := decodeValue(cell)
			if err != nil {
				return err
			}
			row[j] = v
		}
		res.Rows = append(res.Rows, row)
	}
	return nil
}

// Begin opens an explicit transaction on the server session.
func (c *Conn) Begin() error {
	_, err := c.roundTrip(map[string]any{"type": "begin"})
	return err
}

// Commit publishes the open transaction and returns its accumulated
// update statistics.
func (c *Conn) Commit() (UpdateStats, error) {
	reply, err := c.roundTrip(map[string]any{"type": "commit"})
	if err != nil {
		return UpdateStats{}, err
	}
	return decodeStats(reply["stats"]), nil
}

// Rollback discards the open transaction.
func (c *Conn) Rollback() error {
	_, err := c.roundTrip(map[string]any{"type": "rollback"})
	return err
}

// Reset returns the server session to a clean state: buffered rows are
// discarded and any open transaction rolls back.
func (c *Conn) Reset() error {
	_, err := c.roundTrip(map[string]any{"type": "reset"})
	return err
}

// Close sends GOODBYE and closes the connection.
func (c *Conn) Close() error {
	c.writeFrame(map[string]any{"type": "goodbye"})
	return c.nc.Close()
}

// roundTrip sends one message and reads one reply, converting failure
// frames to *ServerError.
func (c *Conn) roundTrip(msg map[string]any) (map[string]any, error) {
	if err := c.writeFrame(msg); err != nil {
		return nil, err
	}
	reply, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	switch reply["type"] {
	case "success":
		return reply, nil
	case "failure":
		code, _ := reply["code"].(string)
		text, _ := reply["message"].(string)
		return nil, &ServerError{Code: code, Message: text}
	default:
		return nil, fmt.Errorf("cypherclient: unexpected reply type %v", reply["type"])
	}
}

// writeFrame sends the length header and the JSON body in one Write.
func (c *Conn) writeFrame(msg map[string]any) error {
	body, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	frame := make([]byte, 4, 4+len(body))
	binary.BigEndian.PutUint32(frame, uint32(len(body)))
	_, err = c.nc.Write(append(frame, body...))
	return err
}

func (c *Conn) readFrame() (map[string]any, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("cypherclient: oversized reply frame (%d bytes)", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(c.r, body); err != nil {
		return nil, err
	}
	// UseNumber keeps 64-bit integers exact (plain Unmarshal would route
	// every number through float64, corrupting ids above 2^53).
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var msg map[string]any
	if err := dec.Decode(&msg); err != nil {
		return nil, fmt.Errorf("cypherclient: malformed reply: %w", err)
	}
	return msg, nil
}

// encodeValue renders a value in the wire's tagged JSON form (as plain
// maps, since this implementation is deliberately independent of the
// server's structs).
func encodeValue(v Value) (map[string]any, error) {
	switch x := v.(type) {
	case nil, value.Null:
		return map[string]any{"null": true}, nil
	case value.Bool:
		return map[string]any{"bool": bool(x)}, nil
	case value.Int:
		// Marshal as json.Number-safe integer via int64.
		return map[string]any{"int": int64(x)}, nil
	case value.Float:
		f := float64(x)
		switch {
		case math.IsNaN(f):
			return map[string]any{"floatSpecial": "nan"}, nil
		case math.IsInf(f, 1):
			return map[string]any{"floatSpecial": "+inf"}, nil
		case math.IsInf(f, -1):
			return map[string]any{"floatSpecial": "-inf"}, nil
		}
		return map[string]any{"float": f}, nil
	case value.String:
		return map[string]any{"string": string(x)}, nil
	case value.List:
		list := make([]any, len(x))
		for i, el := range x {
			ev, err := encodeValue(el)
			if err != nil {
				return nil, err
			}
			list[i] = ev
		}
		return map[string]any{"isList": true, "list": list}, nil
	case value.Map:
		m := make(map[string]any, len(x))
		for k, el := range x {
			ev, err := encodeValue(el)
			if err != nil {
				return nil, err
			}
			m[k] = ev
		}
		return map[string]any{"isMap": true, "map": m}, nil
	case value.Node:
		return map[string]any{"node": x.ID}, nil
	case value.Rel:
		return map[string]any{"rel": x.ID}, nil
	case value.Path:
		return map[string]any{"path": map[string]any{"nodes": x.Nodes, "rels": x.Rels}}, nil
	default:
		return nil, fmt.Errorf("cypherclient: cannot encode %s value", v.Kind())
	}
}

// decodeValue parses the wire's tagged JSON form into a runtime value.
// Numbers arrive as float64 from encoding/json; integer tags are
// converted back exactly (the wire never carries an int that does not
// fit — see intFromJSON).
func decodeValue(raw any) (Value, error) {
	m, ok := raw.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("cypherclient: malformed wire value %T", raw)
	}
	switch {
	case m["null"] == true:
		return value.NullValue, nil
	case m["bool"] != nil:
		b, ok := m["bool"].(bool)
		if !ok {
			return nil, errors.New("cypherclient: malformed bool value")
		}
		return value.Bool(b), nil
	case m["int"] != nil:
		i, err := intFromJSON(m["int"])
		if err != nil {
			return nil, err
		}
		return value.Int(i), nil
	case m["float"] != nil:
		f, err := floatFromJSON(m["float"])
		if err != nil {
			return nil, err
		}
		return value.Float(f), nil
	case m["floatSpecial"] != nil:
		switch m["floatSpecial"] {
		case "nan":
			return value.Float(math.NaN()), nil
		case "+inf":
			return value.Float(math.Inf(1)), nil
		case "-inf":
			return value.Float(math.Inf(-1)), nil
		}
		return nil, fmt.Errorf("cypherclient: unknown float special %v", m["floatSpecial"])
	case m["string"] != nil:
		s, ok := m["string"].(string)
		if !ok {
			return nil, errors.New("cypherclient: malformed string value")
		}
		return value.String(s), nil
	case m["isList"] == true:
		raw, _ := m["list"].([]any)
		out := make(value.List, len(raw))
		for i, el := range raw {
			v, err := decodeValue(el)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case m["isMap"] == true:
		raw, _ := m["map"].(map[string]any)
		out := make(value.Map, len(raw))
		for k, el := range raw {
			v, err := decodeValue(el)
			if err != nil {
				return nil, err
			}
			out[k] = v
		}
		return out, nil
	case m["node"] != nil:
		id, err := intFromJSON(m["node"])
		if err != nil {
			return nil, err
		}
		return value.Node{ID: id}, nil
	case m["rel"] != nil:
		id, err := intFromJSON(m["rel"])
		if err != nil {
			return nil, err
		}
		return value.Rel{ID: id}, nil
	case m["path"] != nil:
		pm, ok := m["path"].(map[string]any)
		if !ok {
			return nil, errors.New("cypherclient: malformed path value")
		}
		nodes, err := intSliceFromJSON(pm["nodes"])
		if err != nil {
			return nil, err
		}
		rels, err := intSliceFromJSON(pm["rels"])
		if err != nil {
			return nil, err
		}
		if len(nodes) != len(rels)+1 {
			return nil, errors.New("cypherclient: malformed path value")
		}
		return value.Path{Nodes: nodes, Rels: rels}, nil
	default:
		return nil, errors.New("cypherclient: wire value has no recognized tag")
	}
}

// intFromJSON recovers an exact int64 from a decoded JSON number
// (json.Number thanks to UseNumber; float64 tolerated for values that
// survive the round-trip).
func intFromJSON(raw any) (int64, error) {
	switch n := raw.(type) {
	case json.Number:
		return n.Int64()
	case float64:
		i := int64(n)
		if float64(i) != n {
			return 0, fmt.Errorf("cypherclient: integer %v not exactly representable", n)
		}
		return i, nil
	default:
		return 0, fmt.Errorf("cypherclient: malformed integer %T", raw)
	}
}

// floatFromJSON recovers a float64 from a decoded JSON number. Go
// marshals floats in their shortest round-trip form, so parsing the
// text back yields the bit-identical float.
func floatFromJSON(raw any) (float64, error) {
	switch n := raw.(type) {
	case json.Number:
		return strconv.ParseFloat(n.String(), 64)
	case float64:
		return n, nil
	default:
		return 0, fmt.Errorf("cypherclient: malformed float %T", raw)
	}
}

func intSliceFromJSON(raw any) ([]int64, error) {
	list, ok := raw.([]any)
	if !ok {
		if raw == nil {
			return []int64{}, nil
		}
		return nil, fmt.Errorf("cypherclient: malformed id list %T", raw)
	}
	out := make([]int64, len(list))
	for i, el := range list {
		v, err := intFromJSON(el)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// decodeStats parses the stats object of a success reply (absent or
// malformed fields read as zero — stats are diagnostics, not data).
func decodeStats(raw any) UpdateStats {
	m, ok := raw.(map[string]any)
	if !ok {
		return UpdateStats{}
	}
	n := func(key string) int {
		i, err := intFromJSON(m[key])
		if err != nil {
			return 0
		}
		return int(i)
	}
	return UpdateStats{
		NodesCreated:  n("nodesCreated"),
		NodesDeleted:  n("nodesDeleted"),
		RelsCreated:   n("relsCreated"),
		RelsDeleted:   n("relsDeleted"),
		PropsSet:      n("propsSet"),
		LabelsAdded:   n("labelsAdded"),
		LabelsRemoved: n("labelsRemoved"),
	}
}
