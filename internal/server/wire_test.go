package server

import (
	"bytes"
	"testing"
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
