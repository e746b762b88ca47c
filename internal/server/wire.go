// Package server implements cypherd's network layer: a TCP server
// speaking a length-prefixed JSON wire protocol where each connection
// maps onto one cypher.Session. The protocol is deliberately small —
// eight client message types, two server message types — and carries
// the full value system (including NaN/±Inf floats and node/rel/path
// entities) with explicit type tags, so remote results are
// bit-identical to embedded execution.
//
// # Framing
//
// Every message is one frame: a 4-byte big-endian unsigned length N
// followed by N bytes of JSON encoding a single message object. N must
// be at least 2 ("{}") and at most the server's configured maximum
// (Options.MaxFrame, default 16 MiB); violations are protocol errors
// that close the connection after a failure frame.
//
// The codec is hand-written: frames are appended to a buffer each
// connection reuses and scanned without reflection, and values use the
// engine's one tagged-JSON codec (internal/tagjson), which the graph
// snapshot shares. The bytes are the ones encoding/json would write for
// the Message struct. A params value that is well-formed JSON but not a
// tagged value fails the run with InvalidParameter; only malformed JSON
// is a protocol error.
//
// # Messages
//
// Client to server (the "type" field selects):
//
//	hello                                  — must be first; negotiates
//	run    {query, params, mode, pull}     — execute; mode "" | "explain" | "profile";
//	                                         pull n > 0 returns up to n rows inline
//	pull   {n}                             — fetch up to n buffered rows (n<=0: all)
//	begin / commit / rollback              — explicit transaction control
//	reset                                  — discard pending rows, roll back any open txn
//	goodbye                                — close the connection
//
// Server to client:
//
//	success {server?, dialect?, columns?, rows?, more?, stats?, plan?}
//	failure {code, message}
//
// RUN executes the statement to completion. With pull n > 0 its success
// reply already carries the first n rows and "more"; otherwise every
// row stays buffered server-side. PULL pages whatever remains, so a
// client that asks for a first batch at least as large as the result
// spends one request frame and one reply frame per statement. RUN text
// BEGIN/COMMIT/ROLLBACK acts like the dedicated messages, except under
// mode explain or profile, where the session renders or refuses it.
//
// Failure frames carry a machine-readable code (see the Code*
// constants); protocol violations are fatal (the server closes the
// connection after the failure frame), statement-level errors are not.
package server

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/value"
)

// Message types (the "type" field of a frame's JSON object).
const (
	// MsgHello must be the first message on a connection.
	MsgHello = "hello"
	// MsgRun executes a statement.
	MsgRun = "run"
	// MsgPull fetches buffered result rows of the last run.
	MsgPull = "pull"
	// MsgBegin opens an explicit transaction.
	MsgBegin = "begin"
	// MsgCommit publishes the open transaction.
	MsgCommit = "commit"
	// MsgRollback discards the open transaction.
	MsgRollback = "rollback"
	// MsgReset discards pending rows and rolls back any open transaction.
	MsgReset = "reset"
	// MsgGoodbye closes the connection (no reply).
	MsgGoodbye = "goodbye"
	// MsgSuccess is the server's positive reply.
	MsgSuccess = "success"
	// MsgFailure is the server's negative reply.
	MsgFailure = "failure"
)

// Failure codes carried by failure frames.
const (
	// CodeProtocolError marks a protocol-state violation (RUN before
	// HELLO, double HELLO, unknown message type, malformed frame). Fatal:
	// the server closes the connection after the failure frame.
	CodeProtocolError = "ProtocolError"
	// CodeFrameTooLarge rejects a frame whose declared length exceeds
	// the server's maximum. Fatal.
	CodeFrameTooLarge = "FrameTooLarge"
	// CodeSyntaxError marks a statement that failed to parse or
	// validate. Not fatal.
	CodeSyntaxError = "SyntaxError"
	// CodeExecutionError marks a statement that failed at runtime. The
	// statement rolled back; the connection (and any open transaction)
	// stays usable.
	CodeExecutionError = "ExecutionError"
	// CodeTransactionState marks invalid transaction control (COMMIT
	// without BEGIN, nested BEGIN). Not fatal.
	CodeTransactionState = "TransactionState"
	// CodeNoPendingResult marks a PULL with no buffered result. Not fatal.
	CodeNoPendingResult = "NoPendingResult"
	// CodeServerBusy rejects a write when the bounded writer-admission
	// queue is full. Not fatal; the client may retry.
	CodeServerBusy = "ServerBusy"
	// CodeServerDraining rejects new statements while the server shuts
	// down gracefully. Not fatal, but the connection will close soon.
	CodeServerDraining = "ServerDraining"
	// CodeStatementTimeout reports a statement that exceeded the
	// per-statement timeout. Fatal: the engine cannot abandon a running
	// statement mid-flight, so the server tears the connection down once
	// the statement completes server-side.
	CodeStatementTimeout = "StatementTimeout"
	// CodeInvalidParameter marks a RUN whose params failed to decode.
	CodeInvalidParameter = "InvalidParameter"
)

// Message is the wire message object; one struct covers both
// directions (unused fields stay empty and are omitted from JSON).
type Message struct {
	// Type is the message type (one of the Msg* constants).
	Type string `json:"type"`

	// Query is the statement text of a run message.
	Query string `json:"query,omitempty"`
	// Params are the statement parameters of a run message.
	Params map[string]WireValue `json:"params,omitempty"`
	// Mode selects run behaviour: "" executes, "explain" plans without
	// executing, "profile" executes and returns the annotated plan.
	Mode string `json:"mode,omitempty"`
	// N is the maximum number of rows a pull fetches; n <= 0 fetches
	// all remaining rows.
	N int `json:"n,omitempty"`
	// Pull, when positive, asks a run to return up to that many rows
	// in its success reply; absent or <= 0, every row waits for PULL.
	Pull int `json:"pull,omitempty"`

	// Server identifies the server software in a hello reply.
	Server string `json:"server,omitempty"`
	// Dialect is the database's update dialect in a hello reply.
	Dialect string `json:"dialect,omitempty"`
	// Columns are the result column names in a run success.
	Columns []string `json:"columns,omitempty"`
	// Rows are result records in a pull success, or the first batch in
	// the success of a run that asked for one.
	Rows [][]WireValue `json:"rows,omitempty"`
	// More reports, in a pull success or a run success that carries
	// rows, whether rows remain buffered for PULL.
	More bool `json:"more,omitempty"`
	// Stats carries update counters in a run/commit success.
	Stats *WireStats `json:"stats,omitempty"`
	// Plan is the rendered operator plan of an explain/profile success.
	Plan string `json:"plan,omitempty"`

	// Code is the machine-readable failure code of a failure message.
	Code string `json:"code,omitempty"`
	// Error is the human-readable failure message.
	Error string `json:"message,omitempty"`

	// rawParams and rawRows are the undecoded JSON of a read frame's
	// params object and rows array. They alias the buffer the frame was
	// read into: the server decodes parameters straight to runtime
	// values, and ReadFrame decodes both into Params and Rows.
	rawParams, rawRows []byte
	// values, when set, are the rows of an outgoing reply as runtime
	// values, which the encoder writes in tagged form without building
	// WireValues; Rows is then ignored.
	values [][]value.Value
}

// WireStats mirrors cypher.UpdateStats on the wire.
type WireStats struct {
	// NodesCreated counts nodes created.
	NodesCreated int `json:"nodesCreated,omitempty"`
	// NodesDeleted counts nodes deleted.
	NodesDeleted int `json:"nodesDeleted,omitempty"`
	// RelsCreated counts relationships created.
	RelsCreated int `json:"relsCreated,omitempty"`
	// RelsDeleted counts relationships deleted.
	RelsDeleted int `json:"relsDeleted,omitempty"`
	// PropsSet counts properties set or removed.
	PropsSet int `json:"propsSet,omitempty"`
	// LabelsAdded counts labels added.
	LabelsAdded int `json:"labelsAdded,omitempty"`
	// LabelsRemoved counts labels removed.
	LabelsRemoved int `json:"labelsRemoved,omitempty"`
}

// WireValue is the tagged JSON encoding of a Cypher value. Exactly one
// tag is set; explicit tags make integers, floats (including NaN and
// the infinities, via floatSpecial) and entity references round-trip
// bit-identically — a bare JSON number would not.
type WireValue struct {
	// Null marks the null value.
	Null bool `json:"null,omitempty"`
	// Bool carries a boolean.
	Bool *bool `json:"bool,omitempty"`
	// Int carries a 64-bit integer.
	Int *int64 `json:"int,omitempty"`
	// Float carries a finite 64-bit float.
	Float *float64 `json:"float,omitempty"`
	// FloatS carries a non-finite float: "nan", "+inf" or "-inf".
	FloatS string `json:"floatSpecial,omitempty"`
	// Str carries a string.
	Str *string `json:"string,omitempty"`
	// List carries list elements when IsList is set.
	List []WireValue `json:"list,omitempty"`
	// IsList marks a (possibly empty) list.
	IsList bool `json:"isList,omitempty"`
	// Map carries map entries when IsMap is set.
	Map map[string]WireValue `json:"map,omitempty"`
	// IsMap marks a (possibly empty) map.
	IsMap bool `json:"isMap,omitempty"`
	// Node carries a node reference by id.
	Node *int64 `json:"node,omitempty"`
	// Rel carries a relationship reference by id.
	Rel *int64 `json:"rel,omitempty"`
	// Path carries a path as alternating node/relationship ids.
	Path *WirePath `json:"path,omitempty"`
}

// WirePath is the wire encoding of a path value.
type WirePath struct {
	// Nodes are the path's node ids (len(Nodes) == len(Rels)+1).
	Nodes []int64 `json:"nodes"`
	// Rels are the path's relationship ids.
	Rels []int64 `json:"rels"`
}

// EncodeValue converts a runtime value to its wire encoding.
func EncodeValue(v value.Value) (WireValue, error) {
	switch x := v.(type) {
	case nil, value.Null:
		return WireValue{Null: true}, nil
	case value.Bool:
		b := bool(x)
		return WireValue{Bool: &b}, nil
	case value.Int:
		i := int64(x)
		return WireValue{Int: &i}, nil
	case value.Float:
		f := float64(x)
		switch {
		case math.IsNaN(f):
			return WireValue{FloatS: "nan"}, nil
		case math.IsInf(f, 1):
			return WireValue{FloatS: "+inf"}, nil
		case math.IsInf(f, -1):
			return WireValue{FloatS: "-inf"}, nil
		}
		return WireValue{Float: &f}, nil
	case value.String:
		s := string(x)
		return WireValue{Str: &s}, nil
	case value.List:
		out := WireValue{IsList: true, List: make([]WireValue, len(x))}
		for i, el := range x {
			ev, err := EncodeValue(el)
			if err != nil {
				return WireValue{}, err
			}
			out.List[i] = ev
		}
		return out, nil
	case value.Map:
		out := WireValue{IsMap: true, Map: make(map[string]WireValue, len(x))}
		for k, el := range x {
			ev, err := EncodeValue(el)
			if err != nil {
				return WireValue{}, err
			}
			out.Map[k] = ev
		}
		return out, nil
	case value.Node:
		id := x.ID
		return WireValue{Node: &id}, nil
	case value.Rel:
		id := x.ID
		return WireValue{Rel: &id}, nil
	case value.Path:
		p := &WirePath{Nodes: append([]int64(nil), x.Nodes...), Rels: append([]int64(nil), x.Rels...)}
		if p.Rels == nil {
			p.Rels = []int64{}
		}
		return WireValue{Path: p}, nil
	default:
		return WireValue{}, fmt.Errorf("server: cannot encode %s value", v.Kind())
	}
}

// DecodeValue converts a wire encoding back to a runtime value.
func DecodeValue(w WireValue) (value.Value, error) {
	switch {
	case w.Null:
		return value.NullValue, nil
	case w.Bool != nil:
		return value.Bool(*w.Bool), nil
	case w.Int != nil:
		return value.Int(*w.Int), nil
	case w.Float != nil:
		return value.Float(*w.Float), nil
	case w.FloatS != "":
		switch w.FloatS {
		case "nan":
			return value.Float(math.NaN()), nil
		case "+inf":
			return value.Float(math.Inf(1)), nil
		case "-inf":
			return value.Float(math.Inf(-1)), nil
		}
		return nil, fmt.Errorf("server: unknown float special %q", w.FloatS)
	case w.Str != nil:
		return value.String(*w.Str), nil
	case w.IsList:
		out := make(value.List, len(w.List))
		for i, el := range w.List {
			v, err := DecodeValue(el)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case w.IsMap:
		out := make(value.Map, len(w.Map))
		for k, el := range w.Map {
			v, err := DecodeValue(el)
			if err != nil {
				return nil, err
			}
			out[k] = v
		}
		return out, nil
	case w.Node != nil:
		return value.Node{ID: *w.Node}, nil
	case w.Rel != nil:
		return value.Rel{ID: *w.Rel}, nil
	case w.Path != nil:
		if len(w.Path.Nodes) != len(w.Path.Rels)+1 {
			return nil, fmt.Errorf("server: malformed path (%d nodes, %d rels)", len(w.Path.Nodes), len(w.Path.Rels))
		}
		return value.Path{
			Nodes: append([]int64(nil), w.Path.Nodes...),
			Rels:  append([]int64(nil), w.Path.Rels...),
		}, nil
	default:
		return nil, errors.New("server: malformed wire value (no tag set)")
	}
}
