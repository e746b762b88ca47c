// Package cypherclient is a client for the cypherd wire protocol. Its
// message layer is its own: the length-prefixed framing, which fields a
// request carries and how a reply's fields, counters and paging flag are
// read, so protocol tests run the client's message layer against the
// server's. Value tags and JSON scanning come from internal/tagjson, the
// one tagged-JSON codec in the tree, whose bytes tests hold to
// encoding/json.
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
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/value"
)

// Value is a Cypher runtime value as returned in result rows.
type Value = value.Value

// maxFrame bounds reply frames the client will accept.
const maxFrame = 64 << 20

// maxKeptBuffer bounds the frame buffers a Conn keeps between
// statements; one grown past it for a large result is dropped after use.
const maxKeptBuffer = 1 << 20

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
	// wbuf and rbuf are the request and reply frame buffers, reused
	// from one frame to the next.
	wbuf, rbuf []byte
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
	reply, err := c.roundTrip(&request{typ: "hello"})
	if err != nil {
		nc.Close()
		return nil, err
	}
	c.server, c.dialect = reply.server, reply.dialect
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
	reply, err := c.roundTrip(&request{typ: "run", query: query, mode: "explain"})
	if err != nil {
		return "", err
	}
	return reply.plan, nil
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
	reply, err := c.roundTrip(&request{typ: "run", query: query, mode: mode, params: params, pull: pullBatch})
	if err != nil {
		return nil, "", err
	}
	res := &Result{Stats: reply.stats}
	if !reply.hasColumns {
		// Transaction control (or explain): no result to pull.
		return res, reply.plan, nil
	}
	res.Columns, res.Rows = reply.columns, reply.rows
	plan := reply.plan
	for reply.more {
		if reply, err = c.roundTrip(&request{typ: "pull", n: pullBatch}); err != nil {
			return nil, "", err
		}
		res.Rows = append(res.Rows, reply.rows...)
	}
	return res, plan, nil
}

// Begin opens an explicit transaction on the server session.
func (c *Conn) Begin() error {
	_, err := c.roundTrip(&request{typ: "begin"})
	return err
}

// Commit publishes the open transaction and returns its accumulated
// update statistics.
func (c *Conn) Commit() (UpdateStats, error) {
	reply, err := c.roundTrip(&request{typ: "commit"})
	if err != nil {
		return UpdateStats{}, err
	}
	return reply.stats, nil
}

// Rollback discards the open transaction.
func (c *Conn) Rollback() error {
	_, err := c.roundTrip(&request{typ: "rollback"})
	return err
}

// Reset returns the server session to a clean state: buffered rows are
// discarded and any open transaction rolls back.
func (c *Conn) Reset() error {
	_, err := c.roundTrip(&request{typ: "reset"})
	return err
}

// Close sends GOODBYE and closes the connection.
func (c *Conn) Close() error {
	c.writeFrame(&request{typ: "goodbye"})
	return c.nc.Close()
}

// roundTrip sends one message and reads one reply, converting failure
// frames to *ServerError.
func (c *Conn) roundTrip(req *request) (reply, error) {
	if err := c.writeFrame(req); err != nil {
		return reply{}, err
	}
	rep, err := c.readFrame()
	if err != nil {
		return reply{}, err
	}
	switch rep.typ {
	case "success":
		return rep, nil
	case "failure":
		return reply{}, &ServerError{Code: rep.code, Message: rep.message}
	default:
		return reply{}, fmt.Errorf("cypherclient: unexpected reply type %q", rep.typ)
	}
}

// writeFrame sends the length header and the JSON body in one Write.
func (c *Conn) writeFrame(req *request) error {
	frame, err := appendRequest(append(c.wbuf[:0], 0, 0, 0, 0), req)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err = c.nc.Write(frame)
	if cap(frame) <= maxKeptBuffer {
		c.wbuf = frame
	}
	return err
}

// readFrame reads and decodes one reply frame. Decoded strings are
// copies, so the body buffer is free for the next frame.
func (c *Conn) readFrame() (reply, error) {
	var rep reply
	buf := c.rbuf
	if cap(buf) < 4 {
		buf = make([]byte, 4, 512)
	}
	if _, err := io.ReadFull(c.r, buf[:4]); err != nil {
		return rep, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n > maxFrame {
		return rep, fmt.Errorf("cypherclient: oversized reply frame (%d bytes)", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(c.r, buf[:n]); err != nil {
		return rep, err
	}
	if cap(buf) <= maxKeptBuffer {
		c.rbuf = buf
	}
	err := decodeReply(buf[:n], &rep)
	return rep, err
}
