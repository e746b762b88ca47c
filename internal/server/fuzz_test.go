package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
)

// FuzzWireFrameDecode throws hostile bytes at the frame decoder:
// lying length prefixes, truncated frames, invalid JSON, valid JSON
// that is not a message. The decoder must never panic and never
// allocate the declared length before checking it; any outcome other
// than a clean (*Message, nil) must be a clean error.
func FuzzWireFrameDecode(f *testing.F) {
	frame := func(body string) []byte {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		return append(hdr[:], body...)
	}
	f.Add(frame(`{"type":"hello"}`), 1024)
	f.Add(frame(`{"type":"run","query":"RETURN 1","params":{"x":{"int":7}}}`), 1<<20)
	f.Add(frame(`{}`), 1024)
	f.Add(frame(`{"type":"pull","n":-3}`), 1024)
	f.Add(frame(`not json at all`), 1024)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, 1024)       // length 4 GiB, no body
	f.Add([]byte{0x00, 0x00, 0x00, 0x00}, 1024)       // length 0
	f.Add([]byte{0x00, 0x00, 0x00, 0x10, 0x7b}, 1024) // truncated body
	f.Add([]byte{0x00, 0x00}, 1024)                   // truncated header
	f.Add(frame(`{"type":"run","mode":"explain"}`)[:7], 64)
	f.Add(frame(`{"type":"run","query":"MATCH (n) RETURN n","pull":4096}`), 1024)
	f.Fuzz(func(t *testing.T, data []byte, maxFrame int) {
		r := bytes.NewReader(data)
		msg, err := ReadFrame(r, maxFrame)
		if err != nil {
			if msg != nil {
				t.Fatal("non-nil message alongside error")
			}
			return
		}
		if msg.Type == "" {
			t.Fatal("decoded message with empty type")
		}
		// A decoded frame must re-encode and decode back to the same
		// message (the codec is canonical for its own output).
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msg); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := ReadFrame(&buf, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if again.Type != msg.Type || again.Query != msg.Query || again.N != msg.N || again.Pull != msg.Pull || again.Code != msg.Code {
			t.Fatalf("round-trip mismatch: %+v vs %+v", msg, again)
		}
	})
}

// FuzzWireValueRoundTrip checks DecodeValue tolerates arbitrary tag
// combinations and, when it accepts one, the value re-encodes and
// decodes to the same runtime value.
func FuzzWireValueRoundTrip(f *testing.F) {
	f.Add(`{"int":7}`)
	f.Add(`{"floatSpecial":"nan"}`)
	f.Add(`{"isList":true,"list":[{"null":true},{"string":"x"}]}`)
	f.Add(`{"node":3}`)
	f.Add(`{"path":{"nodes":[1,2],"rels":[9]}}`)
	f.Add(`{"path":{"nodes":[1],"rels":[9]}}`)
	f.Add(`{"bool":true,"int":1}`)
	f.Fuzz(func(t *testing.T, body string) {
		var wv WireValue
		if err := jsonUnmarshalStrictish([]byte(body), &wv); err != nil {
			return
		}
		v, err := DecodeValue(wv)
		if err != nil {
			return
		}
		wv2, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("re-encode of accepted value %v: %v", v, err)
		}
		v2, err := DecodeValue(wv2)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if v.Kind() != v2.Kind() || v.String() != v2.String() {
			t.Fatalf("round-trip mismatch: %v vs %v", v, v2)
		}
	})
}

func jsonUnmarshalStrictish(data []byte, v any) error {
	return json.Unmarshal(data, v)
}
