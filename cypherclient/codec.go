package cypherclient

import (
	"fmt"
	"strconv"

	"repro/internal/tagjson"
	"repro/internal/value"
)

// This file is the client's message layer: which fields a request
// carries and how a reply's fields, counters and paging flag are read.
// Requests are appended to a buffer the connection reuses, and replies
// are decoded in one pass straight into result values; value tags and
// JSON scanning come from internal/tagjson.

// request is one outgoing message; zero fields are left out.
type request struct {
	typ, query, mode string
	params           map[string]any
	pull, n          int
}

// appendRequest appends r's JSON object to b.
func appendRequest(b []byte, r *request) ([]byte, error) {
	b = tagjson.AppendString(append(b, `{"type":`...), r.typ)
	if r.query != "" {
		b = tagjson.AppendString(append(b, `,"query":`...), r.query)
	}
	if r.mode != "" {
		b = tagjson.AppendString(append(b, `,"mode":`...), r.mode)
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
				b, err = tagjson.Append(append(tagjson.AppendString(b, k), ':'), v)
			}
			if err != nil {
				return nil, fmt.Errorf("parameter $%s: %w", k, err)
			}
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
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

// decodeReply decodes a reply frame body into r. Unknown members are
// skipped and a null member leaves its field zero.
func decodeReply(body []byte, r *reply) error {
	s := tagjson.NewScanner(body)
	err := s.Object(func(key []byte) error {
		if s.Null() {
			return nil
		}
		var err error
		switch string(key) {
		case "type":
			var t []byte
			t, err = s.Text()
			switch string(t) { // the usual two without a copy
			case "success":
				r.typ = "success"
			case "failure":
				r.typ = "failure"
			default:
				r.typ = string(t)
			}
		case "server":
			r.server, err = s.String()
		case "dialect":
			r.dialect, err = s.String()
		case "plan":
			r.plan, err = s.String()
		case "code":
			r.code, err = s.String()
		case "message":
			r.message, err = s.String()
		case "more":
			r.more, err = s.Bool()
		case "columns":
			r.hasColumns = true
			err = s.Array(func() error {
				col, err := s.String()
				r.columns = append(r.columns, col)
				return err
			})
		case "rows":
			err = s.Array(func() error {
				var row []Value
				err := s.Array(func() error {
					v, err := s.Value()
					row = append(row, v)
					return err
				})
				r.rows = append(r.rows, row)
				return err
			})
		case "stats":
			err = s.Object(func(key []byte) error {
				var n *int
				switch string(key) {
				case "nodesCreated":
					n = &r.stats.NodesCreated
				case "nodesDeleted":
					n = &r.stats.NodesDeleted
				case "relsCreated":
					n = &r.stats.RelsCreated
				case "relsDeleted":
					n = &r.stats.RelsDeleted
				case "propsSet":
					n = &r.stats.PropsSet
				case "labelsAdded":
					n = &r.stats.LabelsAdded
				case "labelsRemoved":
					n = &r.stats.LabelsRemoved
				default:
					return s.Skip()
				}
				i, err := s.Int()
				*n = int(i)
				return err
			})
		default:
			err = s.Skip()
		}
		return err
	})
	if err != nil {
		return err
	}
	return s.End()
}
