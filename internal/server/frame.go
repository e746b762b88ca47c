package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"repro/internal/tagjson"
	"repro/internal/value"
)

// DefaultMaxFrame is the default maximum frame body size.
const DefaultMaxFrame = 16 << 20

// minFrame is the smallest well-formed frame body ("{}").
const minFrame = 2

// maxKeptBuffer bounds the frame buffer a connection keeps between
// frames; a larger one, grown for one big frame, is dropped after use.
const maxKeptBuffer = 1 << 20

// ErrFrameTooLarge reports a frame whose declared length exceeds the
// configured maximum. The reader returns it wrapped with the length.
var ErrFrameTooLarge = errors.New("frame exceeds maximum size")

// ErrMalformedFrame reports a frame whose body is not a valid message
// object (bad JSON, empty body, or missing type).
var ErrMalformedFrame = errors.New("malformed frame")

// ReadFrame reads one length-prefixed message from r. maxFrame bounds
// the accepted body size (<= 0 means DefaultMaxFrame). A clean EOF
// before the first length byte returns io.EOF; a truncated frame
// returns io.ErrUnexpectedEOF; an oversized declared length returns an
// error wrapping ErrFrameTooLarge without consuming the body; invalid
// JSON, or a params or rows entry that is not a tagged value, returns an
// error wrapping ErrMalformedFrame.
func ReadFrame(r io.Reader, maxFrame int) (*Message, error) {
	msg := new(Message)
	if _, err := readFrame(r, maxFrame, nil, msg); err != nil {
		return nil, err
	}
	if err := msg.decodeValues(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformedFrame, err)
	}
	return msg, nil
}

// WriteFrame writes one length-prefixed message to w in a single
// Write, so an unbuffered connection sends the header and body in one
// segment.
func WriteFrame(w io.Writer, msg *Message) error {
	frame, err := appendFrame(nil, msg)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// readFrame is ReadFrame into a caller's buffer, which it grows as
// needed and returns for the next frame. msg's raw params and rows
// alias that buffer and stay undecoded.
func readFrame(r io.Reader, maxFrame int, buf []byte, msg *Message) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if cap(buf) < 4 {
		buf = make([]byte, 4, 512)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		// io.ReadFull already maps a partial header to ErrUnexpectedEOF;
		// other errors (timeouts, resets) pass through for the caller to
		// classify.
		return buf, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n > uint32(maxFrame) {
		return buf, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	if n < minFrame {
		return buf, fmt.Errorf("%w: body length %d", ErrMalformedFrame, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if errors.Is(err, io.EOF) {
			return buf, io.ErrUnexpectedEOF
		}
		return buf, err
	}
	if err := decodeMessage(body, msg); err != nil {
		return buf, fmt.Errorf("%w: %v", ErrMalformedFrame, err)
	}
	return buf, nil
}

// decodeMessage scans a frame body into msg. Unknown members are
// skipped and a null member leaves its field zero, as encoding/json
// unmarshals; params and rows are only checked to be an object and an
// array of well-formed JSON.
func decodeMessage(body []byte, msg *Message) error {
	s := tagjson.NewScanner(body)
	err := s.Object(func(key []byte) error {
		if s.Null() {
			return nil
		}
		var err error
		switch string(key) {
		case "type":
			msg.Type, err = scanName(s, MsgHello, MsgRun, MsgPull, MsgBegin, MsgCommit, MsgRollback, MsgReset, MsgGoodbye, MsgSuccess, MsgFailure)
		case "query":
			msg.Query, err = s.String()
		case "params":
			msg.rawParams, err = s.Raw('{')
		case "mode":
			msg.Mode, err = scanName(s, "explain", "profile")
		case "n":
			msg.N, err = scanInt(s)
		case "pull":
			msg.Pull, err = scanInt(s)
		case "server":
			msg.Server, err = s.String()
		case "dialect":
			msg.Dialect, err = s.String()
		case "columns":
			msg.Columns = msg.Columns[:0]
			err = s.Array(func() error {
				var col string
				var err error
				if !s.Null() {
					col, err = s.String()
				}
				msg.Columns = append(msg.Columns, col)
				return err
			})
		case "rows":
			msg.rawRows, err = s.Raw('[')
		case "more":
			msg.More, err = s.Bool()
		case "stats":
			msg.Stats, err = scanStats(s)
		case "plan":
			msg.Plan, err = s.String()
		case "code":
			msg.Code, err = s.String()
		case "message":
			msg.Error, err = s.String()
		default:
			err = s.Skip()
		}
		return err
	})
	if err == nil {
		err = s.End()
	}
	if err == nil && msg.Type == "" {
		err = errors.New("missing message type")
	}
	return err
}

// scanName scans a string that is usually one of names, and returns that
// constant rather than a fresh copy.
func scanName(s *tagjson.Scanner, names ...string) (string, error) {
	b, err := s.Text()
	for _, name := range names {
		if string(b) == name {
			return name, err
		}
	}
	return string(b), err
}

func scanInt(s *tagjson.Scanner) (int, error) {
	i, err := s.Int()
	return int(i), err
}

func scanStats(s *tagjson.Scanner) (*WireStats, error) {
	st := new(WireStats)
	err := s.Object(func(key []byte) error {
		if s.Null() {
			return nil
		}
		var n *int
		switch string(key) {
		case "nodesCreated":
			n = &st.NodesCreated
		case "nodesDeleted":
			n = &st.NodesDeleted
		case "relsCreated":
			n = &st.RelsCreated
		case "relsDeleted":
			n = &st.RelsDeleted
		case "propsSet":
			n = &st.PropsSet
		case "labelsAdded":
			n = &st.LabelsAdded
		case "labelsRemoved":
			n = &st.LabelsRemoved
		default:
			return s.Skip()
		}
		var err error
		*n, err = scanInt(s)
		return err
	})
	return st, err
}

// decodeParams decodes a run's raw params into runtime values for
// cypher.Session.Exec.
func decodeParams(raw []byte) (map[string]any, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make(map[string]any)
	s := tagjson.NewScanner(raw)
	err := s.Object(func(key []byte) error {
		v, err := s.Value()
		if err != nil {
			return fmt.Errorf("parameter $%s: %w", key, err)
		}
		out[string(key)] = v
		return nil
	})
	return out, err
}

// decodeValues fills Params and Rows from the raw JSON readFrame left.
func (m *Message) decodeValues() error {
	params, err := decodeParams(m.rawParams)
	if err != nil {
		return err
	}
	if params != nil {
		m.Params = make(map[string]WireValue, len(params))
		for k, v := range params {
			if m.Params[k], err = EncodeValue(v.(value.Value)); err != nil {
				return err
			}
		}
	}
	if m.rawRows != nil {
		s := tagjson.NewScanner(m.rawRows)
		err = s.Array(func() error {
			var row []WireValue
			err := s.Array(func() error {
				v, err := s.Value()
				if err != nil {
					return err
				}
				wv, err := EncodeValue(v)
				row = append(row, wv)
				return err
			})
			m.Rows = append(m.Rows, row)
			return err
		})
	}
	m.rawParams, m.rawRows = nil, nil
	return err
}

// appendFrame appends msg to b as one frame: the length header, then
// the body.
func appendFrame(b []byte, msg *Message) ([]byte, error) {
	start := len(b)
	b, err := appendMessage(append(b, 0, 0, 0, 0), msg)
	if err != nil {
		return b[:start], err
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b, nil
}

// appendMessage appends msg's JSON object to b: the fields that are
// set, in declaration order, as encoding/json marshals the struct.
func appendMessage(b []byte, msg *Message) ([]byte, error) {
	var err error
	b = tagjson.AppendString(append(b, `{"type":`...), msg.Type)
	b = appendStringField(b, "query", msg.Query)
	if len(msg.Params) > 0 {
		b = append(appendKey(b, "params"), '{')
		for _, k := range sortedKeys(msg.Params) {
			b = tagjson.AppendString(appendComma(b), k)
			if b, err = appendWire(append(b, ':'), msg.Params[k]); err != nil {
				return b, err
			}
		}
		b = append(b, '}')
	}
	b = appendStringField(b, "mode", msg.Mode)
	b = appendIntField(b, "n", msg.N)
	b = appendIntField(b, "pull", msg.Pull)
	b = appendStringField(b, "server", msg.Server)
	b = appendStringField(b, "dialect", msg.Dialect)
	if len(msg.Columns) > 0 {
		b = append(appendKey(b, "columns"), '[')
		for _, col := range msg.Columns {
			b = tagjson.AppendString(appendComma(b), col)
		}
		b = append(b, ']')
	}
	if len(msg.values) > 0 {
		b = append(appendKey(b, "rows"), '[')
		for _, row := range msg.values {
			b = append(appendComma(b), '[')
			for _, v := range row {
				if b, err = tagjson.Append(appendComma(b), v); err != nil {
					return b, err
				}
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	} else if len(msg.Rows) > 0 {
		b = append(appendKey(b, "rows"), '[')
		for _, row := range msg.Rows {
			if row == nil {
				b = append(appendComma(b), "null"...)
				continue
			}
			b = append(appendComma(b), '[')
			for _, wv := range row {
				if b, err = appendWire(appendComma(b), wv); err != nil {
					return b, err
				}
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	if msg.More {
		b = append(appendKey(b, "more"), "true"...)
	}
	if st := msg.Stats; st != nil {
		b = append(appendKey(b, "stats"), '{')
		b = appendIntField(b, "nodesCreated", st.NodesCreated)
		b = appendIntField(b, "nodesDeleted", st.NodesDeleted)
		b = appendIntField(b, "relsCreated", st.RelsCreated)
		b = appendIntField(b, "relsDeleted", st.RelsDeleted)
		b = appendIntField(b, "propsSet", st.PropsSet)
		b = appendIntField(b, "labelsAdded", st.LabelsAdded)
		b = appendIntField(b, "labelsRemoved", st.LabelsRemoved)
		b = append(b, '}')
	}
	b = appendStringField(b, "plan", msg.Plan)
	b = appendStringField(b, "code", msg.Code)
	b = appendStringField(b, "message", msg.Error)
	return append(b, '}'), nil
}

// appendWire appends a WireValue as encoding/json marshals the struct:
// every tag that is set, in declaration order, even when that is more
// than one or an invalid one — a test can send any value it builds.
func appendWire(b []byte, w WireValue) ([]byte, error) {
	b = append(b, '{')
	if w.Null {
		b = append(appendKey(b, "null"), "true"...)
	}
	if w.Bool != nil {
		b = strconv.AppendBool(appendKey(b, "bool"), *w.Bool)
	}
	if w.Int != nil {
		b = strconv.AppendInt(appendKey(b, "int"), *w.Int, 10)
	}
	if w.Float != nil {
		if math.IsNaN(*w.Float) || math.IsInf(*w.Float, 0) {
			return b, fmt.Errorf("server: unsupported float %v (use floatSpecial)", *w.Float)
		}
		b = tagjson.AppendFloat(appendKey(b, "float"), *w.Float)
	}
	b = appendStringField(b, "floatSpecial", w.FloatS)
	if w.Str != nil {
		b = tagjson.AppendString(appendKey(b, "string"), *w.Str)
	}
	var err error
	if len(w.List) > 0 {
		b = append(appendKey(b, "list"), '[')
		for _, el := range w.List {
			if b, err = appendWire(appendComma(b), el); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	if w.IsList {
		b = append(appendKey(b, "isList"), "true"...)
	}
	if len(w.Map) > 0 {
		b = append(appendKey(b, "map"), '{')
		for _, k := range sortedKeys(w.Map) {
			b = tagjson.AppendString(appendComma(b), k)
			if b, err = appendWire(append(b, ':'), w.Map[k]); err != nil {
				return b, err
			}
		}
		b = append(b, '}')
	}
	if w.IsMap {
		b = append(appendKey(b, "isMap"), "true"...)
	}
	if w.Node != nil {
		b = strconv.AppendInt(appendKey(b, "node"), *w.Node, 10)
	}
	if w.Rel != nil {
		b = strconv.AppendInt(appendKey(b, "rel"), *w.Rel, 10)
	}
	if w.Path != nil {
		b = tagjson.AppendIDs(append(appendKey(b, "path"), `{"nodes":`...), w.Path.Nodes)
		b = tagjson.AppendIDs(append(b, `,"rels":`...), w.Path.Rels)
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// appendComma appends the comma that separates an element from the one
// before it, if there is one.
func appendComma(b []byte) []byte {
	if c := b[len(b)-1]; c != '{' && c != '[' {
		b = append(b, ',')
	}
	return b
}

// appendKey appends an object member's key (a name needing no escapes).
func appendKey(b []byte, key string) []byte {
	b = append(appendComma(b), '"')
	return append(append(b, key...), '"', ':')
}

// appendStringField appends a string member unless it is empty.
func appendStringField(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return tagjson.AppendString(appendKey(b, key), s)
}

// appendIntField appends an integer member unless it is zero.
func appendIntField(b []byte, key string, n int) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(appendKey(b, key), int64(n), 10)
}

func sortedKeys(m map[string]WireValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
