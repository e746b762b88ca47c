package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/cypher"
	"repro/internal/value"
)

// conn is one accepted connection: a wire-protocol state machine
// wrapped around one cypher.Session. Statements execute on the serve
// goroutine, which writes every frame but one: a statement timeout's
// failure frame, which its timer writes while the statement runs.
type conn struct {
	srv  *Server
	id   int64
	nc   net.Conn
	sess *cypher.Session

	helloed   bool
	writeSlot bool // holds a writer-admission slot across an explicit txn
	pending   *pendingResult

	// rbuf and wbuf are the frame buffers reused from one frame to the
	// next.
	rbuf, wbuf []byte
}

// pendingResult holds a run's rows that the client has not fetched yet.
type pendingResult struct {
	res  *cypher.Result
	next int
}

// serve runs the connection until it closes or errors. Frames are read
// through one buffered reader; a read deadline set on the net.Conn (the
// idle timeout, the drain kick) still unblocks it, because the reader
// only ever blocks inside the net.Conn's Read.
func (c *conn) serve() {
	defer c.cleanup()
	br := bufio.NewReader(c.nc)
	msg := new(Message)
	for {
		if c.srv.isDraining() {
			return
		}
		if t := c.srv.opts.IdleTimeout; t > 0 {
			c.nc.SetReadDeadline(time.Now().Add(t))
		}
		*msg = Message{}
		var err error
		c.rbuf, err = readFrame(br, c.srv.opts.MaxFrame, c.rbuf, msg)
		if err != nil {
			switch {
			case errors.Is(err, io.EOF):
				// Client went away cleanly.
			case errors.Is(err, ErrFrameTooLarge):
				c.send(failure(CodeFrameTooLarge, err.Error()))
			case isTimeout(err):
				// Idle timeout or drain kick: close silently.
			default:
				c.send(failure(CodeProtocolError, err.Error()))
			}
			return
		}
		if !c.dispatch(msg) {
			return
		}
		if cap(c.rbuf) > maxKeptBuffer {
			c.rbuf = nil
		}
	}
}

// dispatch handles one message; false means close the connection.
func (c *conn) dispatch(msg *Message) bool {
	if !c.helloed && msg.Type != MsgHello {
		c.send(failure(CodeProtocolError, fmt.Sprintf("%s before hello", msg.Type)))
		return false
	}
	switch msg.Type {
	case MsgHello:
		if c.helloed {
			c.send(failure(CodeProtocolError, "duplicate hello"))
			return false
		}
		c.helloed = true
		return c.send(&Message{Type: MsgSuccess, Server: ServerName, Dialect: c.srv.db.Dialect().String()})
	case MsgRun:
		return c.handleRun(msg)
	case MsgPull:
		return c.handlePull(msg)
	case MsgBegin:
		return c.handleBegin()
	case MsgCommit:
		return c.handleCommit()
	case MsgRollback:
		return c.handleRollback()
	case MsgReset:
		return c.handleReset()
	case MsgGoodbye:
		return false
	default:
		c.send(failure(CodeProtocolError, fmt.Sprintf("unknown message type %q", msg.Type)))
		return false
	}
}

// handleRun classifies, schedules and executes one statement.
func (c *conn) handleRun(msg *Message) bool {
	if c.srv.isDraining() {
		return c.send(failure(CodeServerDraining, "server is shutting down"))
	}
	// One cache lookup classifies the statement and, for a plain run,
	// is what executes.
	stmt, err := c.srv.db.Prepare(msg.Query)
	if err != nil {
		return c.send(failure(CodeSyntaxError, err.Error()))
	}
	info := stmt.Info()
	// Only a plain run routes transaction control; explain and profile
	// go to the session, which renders or refuses the statement.
	if msg.Mode != "explain" && msg.Mode != "profile" {
		switch info.TxnControl {
		case "BEGIN":
			return c.handleBegin()
		case "COMMIT":
			return c.handleCommit()
		case "ROLLBACK":
			return c.handleRollback()
		}
	}
	params, err := decodeParams(msg.rawParams)
	if err != nil {
		return c.send(failure(CodeInvalidParameter, err.Error()))
	}
	c.pending = nil

	// Backpressure: an updating auto-commit statement claims a
	// writer-admission slot for its duration. Inside an explicit
	// transaction the slot acquired at BEGIN already covers it.
	needSlot := info.Updating && !c.writeSlot && msg.Mode != "explain"
	if needSlot && !c.srv.acquireWriteSlot() {
		return c.send(failure(CodeServerBusy, "write queue full"))
	}

	// A statement runs on this goroutine. The engine cannot abandon a
	// running statement, so a timeout only answers early: the timer
	// writes the failure frame, and once the statement completes the
	// connection closes.
	var timer *time.Timer
	var fired chan struct{}
	if t := c.srv.opts.StatementTimeout; t > 0 {
		fired = make(chan struct{})
		timer = time.AfterFunc(t, func() {
			// A failure message carries no values, so it always encodes;
			// a failed write needs no handling, as the connection closes.
			frame, _ := appendFrame(nil, failure(CodeStatementTimeout, fmt.Sprintf("statement exceeded %v", t)))
			c.nc.Write(frame)
			close(fired)
		})
	}
	var res *cypher.Result
	var plan string
	switch msg.Mode {
	case "explain":
		plan, err = c.sess.Explain(msg.Query)
	case "profile":
		res, plan, err = c.sess.Profile(msg.Query, params)
	default:
		res, err = c.sess.ExecStatement(stmt, params)
	}
	if needSlot {
		c.srv.releaseWriteSlot()
	}
	if timer != nil && !timer.Stop() {
		<-fired // the timer's failure frame was the reply; wait until it is written
		return false
	}
	if err != nil {
		return c.send(failure(CodeExecutionError, err.Error()))
	}
	reply := &Message{Type: MsgSuccess, Plan: plan}
	if res == nil {
		return c.send(reply)
	}
	reply.Columns = res.Columns()
	reply.Stats = statsToWire(res.Stats())
	c.pending = &pendingResult{res: res}
	if msg.Pull > 0 {
		return c.sendPage(reply, msg.Pull)
	}
	return c.send(reply)
}

// handlePull pages buffered rows to the client.
func (c *conn) handlePull(msg *Message) bool {
	if c.pending == nil {
		return c.send(failure(CodeNoPendingResult, "no statement result to pull"))
	}
	return c.sendPage(&Message{Type: MsgSuccess}, msg.N)
}

// sendPage adds up to n pending rows (n <= 0: all) to reply, drops the
// pending result once it is drained, and sends the reply. RUN and PULL
// both page through it.
func (c *conn) sendPage(reply *Message, n int) bool {
	pr := c.pending
	remaining := pr.res.NumRows() - pr.next
	if n <= 0 || n > remaining {
		n = remaining
	}
	reply.values = make([][]value.Value, n)
	for i := range reply.values {
		reply.values[i] = pr.res.Values(pr.next + i)
	}
	pr.next += n
	reply.More = pr.next < pr.res.NumRows()
	if !reply.More {
		c.pending = nil
	}
	return c.send(reply)
}

// handleBegin opens an explicit transaction, claiming a writer slot.
func (c *conn) handleBegin() bool {
	if c.srv.isDraining() {
		return c.send(failure(CodeServerDraining, "server is shutting down"))
	}
	if c.sess.InTransaction() {
		return c.send(failure(CodeTransactionState, "transaction already open"))
	}
	if !c.writeSlot && !c.srv.acquireWriteSlot() {
		return c.send(failure(CodeServerBusy, "write queue full"))
	}
	c.writeSlot = true
	if err := c.sess.Begin(); err != nil {
		c.dropWriteSlot()
		return c.send(failure(CodeTransactionState, err.Error()))
	}
	return c.send(&Message{Type: MsgSuccess})
}

// handleCommit publishes the open transaction and frees the slot.
func (c *conn) handleCommit() bool {
	stats, err := c.sess.Commit()
	c.dropWriteSlot()
	if err != nil {
		return c.send(failure(CodeTransactionState, err.Error()))
	}
	return c.send(&Message{Type: MsgSuccess, Stats: statsToWire(stats)})
}

// handleRollback discards the open transaction and frees the slot.
func (c *conn) handleRollback() bool {
	err := c.sess.Rollback()
	c.dropWriteSlot()
	if err != nil {
		return c.send(failure(CodeTransactionState, err.Error()))
	}
	return c.send(&Message{Type: MsgSuccess})
}

// handleReset returns the connection to a clean ready state: pending
// rows are discarded and any open transaction rolls back.
func (c *conn) handleReset() bool {
	c.pending = nil
	if c.sess.InTransaction() {
		c.sess.Rollback()
	}
	c.dropWriteSlot()
	return c.send(&Message{Type: MsgSuccess})
}

// dropWriteSlot releases the explicit-transaction writer slot, if held.
func (c *conn) dropWriteSlot() {
	if c.writeSlot {
		c.writeSlot = false
		c.srv.releaseWriteSlot()
	}
}

// cleanup rolls back any open transaction, frees the writer slot and
// unregisters the connection.
func (c *conn) cleanup() {
	c.sess.Close()
	c.dropWriteSlot()
	c.srv.remove(c)
	c.nc.Close()
}

// send writes one frame; false means the connection is broken. A reply
// row that cannot be encoded closes the connection after a failure
// frame.
func (c *conn) send(msg *Message) bool {
	frame, err := appendFrame(c.wbuf[:0], msg)
	if err != nil {
		frame, _ = appendFrame(frame[:0], failure(CodeExecutionError, err.Error()))
		c.nc.Write(frame)
		return false
	}
	_, err = c.nc.Write(frame)
	if cap(frame) <= maxKeptBuffer {
		c.wbuf = frame
	}
	return err == nil
}

// failure builds a failure message.
func failure(code, text string) *Message {
	return &Message{Type: MsgFailure, Code: code, Error: text}
}

// isTimeout reports whether err is a network timeout.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// statsToWire converts update statistics for the wire.
func statsToWire(s cypher.UpdateStats) *WireStats {
	return &WireStats{
		NodesCreated:  s.NodesCreated,
		NodesDeleted:  s.NodesDeleted,
		RelsCreated:   s.RelsCreated,
		RelsDeleted:   s.RelsDeleted,
		PropsSet:      s.PropsSet,
		LabelsAdded:   s.LabelsAdded,
		LabelsRemoved: s.LabelsRemoved,
	}
}
