package rpc

import (
	"bufio"
	"bytes"
	"testing"
	"time"
)

// benchChunk is the message the serving path carries most: one submit
// chunk with a median-sized (510-byte) trace-encoded job.
func benchChunk() *FlowSubmitChunk {
	return &FlowSubmitChunk{ID: "job-000123", Data: bytes.Repeat([]byte("x"), 510)}
}

// BenchmarkFrameCodec is one frame written into a connection's reused
// buffer and read back: the per-message cost of the envelope alone.
func BenchmarkFrameCodec(b *testing.B) {
	body := benchChunk().appendWire(nil)
	var wire bytes.Buffer
	var wbuf []byte
	br := bufio.NewReader(&wire)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeFrame(&wire, &wbuf, uint64(i), "flow.submit", "", body); err != nil {
			b.Fatal(err)
		}
		f, err := readFrame(br)
		if err != nil || f.id != uint64(i) || len(f.body) != len(body) {
			b.Fatalf("frame %d: %+v, %v", i, f, err)
		}
	}
}

// BenchmarkFlowWireCodec is Encode+Decode of a submit chunk: the body
// codec's share of a submission (bench/'s rpc.gob_ns_per_kb probe, per op).
func BenchmarkFlowWireCodec(b *testing.B) {
	chunk := benchChunk()
	b.SetBytes(int64(len(chunk.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := Encode(chunk)
		if err != nil {
			b.Fatal(err)
		}
		var back FlowSubmitChunk
		if err := Decode(enc, &back); err != nil || len(back.Data) != len(chunk.Data) {
			b.Fatalf("round trip: %v", err)
		}
	}
}

// BenchmarkEchoRTT is a loopback round trip of a submit chunk through a
// handler that returns its request: everything between FlowClient.Submit
// and the daemon's handler, and back.
func BenchmarkEchoRTT(b *testing.B) {
	s := NewServer()
	s.Register("echo", func(body []byte) ([]byte, error) { return body, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	chunk := benchChunk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var back FlowSubmitChunk
		if err := c.Call("echo", chunk, &back); err != nil || len(back.Data) != len(chunk.Data) {
			b.Fatalf("echo: %v", err)
		}
	}
}
