package cypherclient

import (
	"context"
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/cypher"
	"repro/internal/server"
)

// frameListener hands the server connections that count the request
// frames the server reads from them.
type frameListener struct {
	net.Listener
	frames *atomic.Int64
}

func (l *frameListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &frameConn{Conn: nc, frames: l.frames}, nil
}

// frameConn parses the length-prefixed stream as the server reads it
// and counts every complete frame, however the reads split it.
type frameConn struct {
	net.Conn
	frames *atomic.Int64
	hdr    []byte // header bytes of the frame in progress
	body   int    // body bytes of the frame in progress still unread
}

func (c *frameConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	for b := p[:n]; len(b) > 0; {
		if c.body > 0 {
			k := min(c.body, len(b))
			c.body, b = c.body-k, b[k:]
			if c.body == 0 {
				c.frames.Add(1)
			}
			continue
		}
		k := min(4-len(c.hdr), len(b))
		c.hdr, b = append(c.hdr, b[:k]...), b[k:]
		if len(c.hdr) == 4 {
			c.body = int(binary.BigEndian.Uint32(c.hdr))
			c.hdr = c.hdr[:0]
			if c.body == 0 {
				c.frames.Add(1)
			}
		}
	}
	return n, err
}

// TestExecOneRequestFrame checks the one-round-trip protocol from the
// client's side: Exec of a result with at most pullBatch rows sends one
// RUN frame and nothing else, and a result one row longer costs exactly
// one PULL more.
func TestExecOneRequestFrame(t *testing.T) {
	db := cypher.Open()
	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var frames atomic.Int64
	done := make(chan error, 1)
	go func() { done <- srv.Serve(&frameListener{Listener: ln, frames: &frames}) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := frames.Load(); got != 1 {
		t.Fatalf("handshake sent %d frames, want 1 (HELLO)", got)
	}
	cases := []struct {
		query  string
		rows   int
		frames int64
	}{
		{"RETURN 1 AS x", 1, 1},
		{"MATCH (n:None) RETURN n", 0, 1},
		{"CREATE (:N)", 0, 1},
		{"UNWIND range(1, $n) AS x RETURN x", pullBatch, 1},
		{"UNWIND range(1, $n + 1) AS x RETURN x", pullBatch + 1, 2},
	}
	for _, tc := range cases {
		before := frames.Load()
		res, err := c.Exec(tc.query, map[string]any{"n": pullBatch})
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if len(res.Rows) != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.query, len(res.Rows), tc.rows)
		}
		if got := frames.Load() - before; got != tc.frames {
			t.Errorf("%s: sent %d request frames, want %d", tc.query, got, tc.frames)
		}
	}
}
