package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
)

// Wire format. Client and daemon are always built from one tree, so there
// is no version byte and no negotiation.
//
// A frame is a 4-byte big-endian length followed by that many bytes:
//
//	len:u32be | id:uvarint | method:str | err:str | body
//
// where str is a uvarint byte count followed by the bytes, and body is
// whatever is left. A request carries the method and no err; a reply
// echoes the request's id, carries no method, and a non-empty err means
// the call failed and there is no body. The whole frame is built in one
// buffer and written with a single Write.
//
// A body is opaque to the frame. Every message type this package declares
// encodes itself field by field, in declaration order, with three
// primitives — int: zigzag varint; bool: one byte, 0 or 1; string and
// []byte: str as above — and a slice of structs as a uvarint count followed
// by the elements. A decoded []byte aliases the body it was decoded from.
// A body that is a single scalar (flow.cancel's id, flow.drain's ack, an
// echoed []byte) is one of those primitives on its own. Nothing else encodes:
// Encode and Decode return an error for any other type.

// MaxFrameSize bounds a single message (64 MiB), protecting both sides
// from corrupt length prefixes.
const MaxFrameSize = 64 << 20

// frame is one decoded message; method, err and body alias the buffer
// readFrame returned it in.
type frame struct {
	id     uint64
	method []byte
	err    []byte
	body   []byte
}

// appendFrame appends one encoded frame to dst, growing it at most once.
func appendFrame(dst []byte, id uint64, method, errMsg string, body []byte) ([]byte, error) {
	n := uvarintLen(id) +
		uvarintLen(uint64(len(method))) + len(method) +
		uvarintLen(uint64(len(errMsg))) + len(errMsg) +
		len(body)
	if n > MaxFrameSize {
		return dst, fmt.Errorf("rpc: frame too large: %d bytes", n)
	}
	dst = slices.Grow(dst, 4+n)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = binary.AppendUvarint(dst, id)
	dst = appendString(dst, method)
	dst = appendString(dst, errMsg)
	return append(dst, body...), nil
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// writeBufKeep is the largest write buffer a connection keeps between
// frames; a bigger one (a large submission went through) is dropped so an
// idle connection does not pin it.
const writeBufKeep = 64 << 10

// writeFrame encodes one frame into *buf — the connection's reused write
// buffer — and sends it with a single Write.
func writeFrame(w io.Writer, buf *[]byte, id uint64, method, errMsg string, body []byte) error {
	b, err := appendFrame((*buf)[:0], id, method, errMsg, body)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	if cap(b) > writeBufKeep {
		b = nil
	}
	*buf = b
	return err
}

// firstRead is how much of a frame readFrame allocates on the strength of
// the length prefix alone.
const firstRead = 64 << 10

// readFrame reads one frame. The frame gets a buffer of its own, never
// reused: a handler may keep what it decoded (a Data aliases the body) and
// return the body itself as its reply. The buffer grows as bytes arrive —
// a bounded first chunk, then doubling — so a lying length prefix followed
// by a hang-up costs memory in proportion to what was sent, not to what
// was claimed.
func readFrame(r *bufio.Reader) (frame, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return frame{}, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	_, _ = r.Discard(4) // cannot fail: Peek just buffered them
	if n > MaxFrameSize {
		return frame{}, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	var buf []byte
	for len(buf) < n {
		chunk := max(len(buf), firstRead)
		if chunk > n-len(buf) {
			chunk = n - len(buf)
		}
		have := len(buf)
		buf = slices.Grow(buf, chunk)[:have+chunk]
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the prefix promised more
			}
			return frame{}, err
		}
	}
	return parseFrame(buf)
}

// parseFrame splits a frame's bytes (without the length prefix).
func parseFrame(buf []byte) (frame, error) {
	rd := wireReader{b: buf}
	f := frame{id: rd.uvarint(), method: rd.bytes(), err: rd.bytes()}
	if rd.bad {
		return frame{}, errors.New("rpc: malformed frame header")
	}
	f.body = rd.b
	return f, nil
}

// wireEncoder and wireDecoder are implemented by every message type this
// package declares: appendWire with a value receiver, so a message encodes
// from a value or a pointer, decodeWire with a pointer receiver.
// (FlowTenantStatus, never a body of its own, only encodes and is read in
// place by FlowStatusReply.)
type wireEncoder interface {
	appendWire(dst []byte) []byte
}

type wireDecoder interface {
	decodeWire(src []byte) error
}

// Encode encodes v as a message body: one of the package's message types,
// or a bare int, bool, string or []byte. Any other type is an error.
func Encode(v interface{}) ([]byte, error) {
	switch m := v.(type) {
	case wireEncoder:
		return m.appendWire(nil), nil
	case int:
		return appendInt(nil, int64(m)), nil
	case bool:
		return appendBool(nil, m), nil
	case string:
		return appendString(nil, m), nil
	case []byte:
		return appendBytes(nil, m), nil
	}
	return nil, fmt.Errorf("rpc: encode: %T is not a wire type", v)
}

// Decode decodes a message body into v, a pointer to the type that was
// encoded. A decoded []byte aliases data.
func Decode(data []byte, v interface{}) error {
	r := wireReader{b: data}
	switch m := v.(type) {
	case wireDecoder:
		return m.decodeWire(data)
	case *int:
		*m = int(r.int())
	case *bool:
		*m = r.bool()
	case *string:
		*m = r.string()
	case *[]byte:
		*m = r.bytes()
	default:
		return fmt.Errorf("rpc: decode: %T is not a pointer to a wire type", v)
	}
	return r.done("scalar")
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendInt(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// wireReader consumes the primitives from the front of b. The first
// malformed or truncated field sets bad and every later read returns zero,
// so a decoder reads all its fields and checks once.
type wireReader struct {
	b   []byte
	bad bool
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) int() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) bool() bool {
	if len(r.b) == 0 || r.b[0] > 1 {
		r.bad, r.b = true, nil
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

// bytes returns a length-prefixed field as a slice of the input (nil when
// empty, as gob decodes it). The length is checked against what is left
// before anything is sliced, so a lying prefix allocates nothing.
func (r *wireReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.bad, r.b = true, nil
		return nil
	}
	if n == 0 {
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *wireReader) string() string { return string(r.bytes()) }

// count reads an element count and rejects one that the remaining bytes
// cannot hold at minSize bytes per element.
func (r *wireReader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.bad, r.b = true, nil
		return 0
	}
	return int(n)
}

// done is a decoder's single check: every field parsed and nothing left.
func (r *wireReader) done(what string) error {
	if r.bad {
		return fmt.Errorf("rpc: decode %s: truncated or malformed", what)
	}
	if len(r.b) != 0 {
		return fmt.Errorf("rpc: decode %s: %d trailing bytes", what, len(r.b))
	}
	return nil
}

// FlowSubmitChunk: ID str | Data str.

func (m FlowSubmitChunk) appendWire(dst []byte) []byte {
	dst = slices.Grow(dst, len(m.ID)+len(m.Data)+2*binary.MaxVarintLen64) // one allocation per submit
	dst = appendString(dst, m.ID)
	return appendBytes(dst, m.Data)
}

func (m *FlowSubmitChunk) decodeWire(src []byte) error {
	r := wireReader{b: src}
	*m = FlowSubmitChunk{ID: r.string(), Data: r.bytes()}
	return r.done("FlowSubmitChunk")
}

// FlowSubmitReply: Decision str | Level str | QueuePos int |
// RetryAfterMicros int | Reason str.

func (m FlowSubmitReply) appendWire(dst []byte) []byte {
	dst = appendString(dst, m.Decision)
	dst = appendString(dst, m.Level)
	dst = appendInt(dst, int64(m.QueuePos))
	dst = appendInt(dst, m.RetryAfterMicros)
	return appendString(dst, m.Reason)
}

func (m *FlowSubmitReply) decodeWire(src []byte) error {
	r := wireReader{b: src}
	*m = FlowSubmitReply{
		Decision: r.string(), Level: r.string(),
		QueuePos: int(r.int()), RetryAfterMicros: r.int(), Reason: r.string(),
	}
	return r.done("FlowSubmitReply")
}

// FlowStatusReply: the seven task and executor ints, the four admission
// counters, FlowQueueLen int, MaxQueueLen int, Draining bool, Level str,
// Panics int, then Tenants as a count and that many FlowTenantStatus.

func (m FlowStatusReply) appendWire(dst []byte) []byte {
	dst = appendInt(dst, int64(m.LiveJobs))
	dst = appendInt(dst, int64(m.PendingTasks))
	dst = appendInt(dst, int64(m.RunningTasks))
	dst = appendInt(dst, int64(m.DoneTasks))
	dst = appendInt(dst, int64(m.SchedQueueLen))
	dst = appendInt(dst, int64(m.FreeExecutors))
	dst = appendInt(dst, int64(m.TotalExecutors))
	dst = appendInt(dst, m.Admitted)
	dst = appendInt(dst, m.Queued)
	dst = appendInt(dst, m.Shed)
	dst = appendInt(dst, m.Decisions)
	dst = appendInt(dst, int64(m.FlowQueueLen))
	dst = appendInt(dst, int64(m.MaxQueueLen))
	dst = appendBool(dst, m.Draining)
	dst = appendString(dst, m.Level)
	dst = appendInt(dst, m.Panics)
	dst = binary.AppendUvarint(dst, uint64(len(m.Tenants)))
	for i := range m.Tenants {
		dst = m.Tenants[i].appendWire(dst)
	}
	return dst
}

func (m *FlowStatusReply) decodeWire(src []byte) error {
	r := wireReader{b: src}
	*m = FlowStatusReply{
		LiveJobs: int(r.int()), PendingTasks: int(r.int()), RunningTasks: int(r.int()), DoneTasks: int(r.int()),
		SchedQueueLen: int(r.int()), FreeExecutors: int(r.int()), TotalExecutors: int(r.int()),
		Admitted: r.int(), Queued: r.int(), Shed: r.int(), Decisions: r.int(),
		FlowQueueLen: int(r.int()), MaxQueueLen: int(r.int()),
		Draining: r.bool(), Level: r.string(), Panics: r.int(),
	}
	if n := r.count(tenantStatusMinSize); n > 0 {
		m.Tenants = make([]FlowTenantStatus, n)
		for i := range m.Tenants {
			m.Tenants[i].read(&r)
		}
	}
	return r.done("FlowStatusReply")
}

// FlowTenantStatus: Tenant str | Admitted int | Queued int | Shed int |
// QueueLen int | InFlight int | Budget int — at least one byte each.
const tenantStatusMinSize = 7

func (m FlowTenantStatus) appendWire(dst []byte) []byte {
	dst = appendString(dst, m.Tenant)
	dst = appendInt(dst, m.Admitted)
	dst = appendInt(dst, m.Queued)
	dst = appendInt(dst, m.Shed)
	dst = appendInt(dst, int64(m.QueueLen))
	dst = appendInt(dst, int64(m.InFlight))
	return appendInt(dst, int64(m.Budget))
}

func (m *FlowTenantStatus) read(r *wireReader) {
	*m = FlowTenantStatus{
		Tenant: r.string(), Admitted: r.int(), Queued: r.int(), Shed: r.int(),
		QueueLen: int(r.int()), InFlight: int(r.int()), Budget: int(r.int()),
	}
}

// FlowCancelReply: Cancelled bool.

func (m FlowCancelReply) appendWire(dst []byte) []byte { return appendBool(dst, m.Cancelled) }

func (m *FlowCancelReply) decodeWire(src []byte) error {
	r := wireReader{b: src}
	*m = FlowCancelReply{Cancelled: r.bool()}
	return r.done("FlowCancelReply")
}
