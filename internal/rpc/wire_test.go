package rpc

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"swift/internal/raceflag"
)

// wireTypes is one zero value per body that crosses the wire: every message
// type the package declares, then the scalar bodies (flow.cancel's id,
// flow.drain's ack, a ping's pong, and the int that completes the
// primitives). The tests below walk it so a new body cannot skip them.
var wireTypes = []interface{}{
	FlowSubmitChunk{}, FlowSubmitReply{}, FlowStatusReply{}, FlowCancelReply{},
	"", false, []byte(nil), 0,
}

// randomize fills every field of the struct v points to, recursively, with
// edge-heavy random values: zero and empty about a third of the time,
// otherwise anything the field's type holds (negative ints included).
func randomize(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			randomize(rng, v.Field(i))
		}
	case reflect.Int, reflect.Int64:
		switch rng.Intn(3) {
		case 0:
			v.SetInt(0)
		case 1:
			v.SetInt(int64(rng.Intn(256)) - 128)
		default:
			v.SetInt(int64(rng.Uint64()))
		}
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.String:
		v.SetString(string(randomBytes(rng)))
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes(randomBytes(rng))
			return
		}
		s := reflect.MakeSlice(v.Type(), rng.Intn(4), 4)
		for i := 0; i < s.Len(); i++ {
			randomize(rng, s.Index(i))
		}
		v.Set(s)
	default:
		panic("randomize: unhandled kind " + v.Kind().String())
	}
}

func randomBytes(rng *rand.Rand) []byte {
	if rng.Intn(3) == 0 {
		return nil
	}
	b := make([]byte, rng.Intn(300)) // past 127: a two-byte length prefix
	rng.Read(b)
	return b
}

// gobRoundTrip is the oracle: what the message looked like after the old
// codec (which, like the wire codec, decodes an empty slice as nil).
func gobRoundTrip(t *testing.T, in, out interface{}) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("gob encode %T: %v", in, err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("gob decode %T: %v", in, err)
	}
}

// Every body round-trips through Encode/Decode to exactly what a gob round
// trip gives — a message from a value and from a pointer — and every strict
// prefix of an encoding is rejected.
func TestWireRoundTripMatchesGob(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, zero := range wireTypes {
		typ := reflect.TypeOf(zero)
		for trial := 0; trial < 200; trial++ {
			msg := reflect.New(typ)
			if trial > 0 { // trial 0 is the zero value
				randomize(rng, msg.Elem())
			}
			enc, err := Encode(msg.Elem().Interface())
			if err != nil {
				t.Fatalf("%v: encode: %v", typ, err)
			}
			if typ.Kind() == reflect.Struct {
				if byPtr, err := Encode(msg.Interface()); err != nil || !bytes.Equal(byPtr, enc) {
					t.Fatalf("%v: encoding a value and a pointer differ (%v)", typ, err)
				}
			}
			got, want := reflect.New(typ), reflect.New(typ)
			if err := Decode(enc, got.Interface()); err != nil {
				t.Fatalf("%v: decode own encoding: %v\n%+v", typ, err, msg.Elem())
			}
			gobRoundTrip(t, msg.Interface(), want.Interface())
			if !reflect.DeepEqual(got.Interface(), want.Interface()) {
				t.Fatalf("%v: wire and gob round trips differ:\nwire %+v\ngob  %+v", typ, got.Elem(), want.Elem())
			}
			for cut := 0; cut < len(enc); cut++ {
				if err := Decode(enc[:cut], reflect.New(typ).Interface()); err == nil {
					t.Fatalf("%v: %d-byte prefix of a %d-byte encoding decoded", typ, cut, len(enc))
				}
			}
			if err := Decode(append(enc[:len(enc):len(enc)], 0), reflect.New(typ).Interface()); err == nil {
				t.Fatalf("%v: a trailing byte was accepted", typ)
			}
		}
	}
}

// There is one format: a type outside it is an error from Encode and from
// Decode, never a second encoding.
func TestEncodeRejectsOtherTypes(t *testing.T) {
	id := "job"
	for _, v := range []interface{}{
		nil, int64(1), uint8(1), 1.5, []string{"a"}, map[string]int{"a": 1}, struct{ A int }{1}, &id,
	} {
		if enc, err := Encode(v); err == nil {
			t.Errorf("Encode(%T) = %x, want an error", v, enc)
		}
	}
	var f float64
	var n int64
	for _, v := range []interface{}{nil, &f, &n, id, FlowCancelReply{}, &struct{ A int }{}} {
		if err := Decode([]byte{0}, v); err == nil {
			t.Errorf("Decode into %T succeeded, want an error", v)
		}
	}
}

// A tenant count the remaining bytes cannot hold is rejected before the
// slice is made.
func TestWireCountCannotOverAllocate(t *testing.T) {
	enc, err := Encode(FlowStatusReply{})
	if err != nil {
		t.Fatal(err)
	}
	lying := append(enc[:len(enc)-1:len(enc)-1], 0x80, 0x80, 0x40) // 2^20 tenants (72 MiB decoded), no bytes
	var st FlowStatusReply
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = Decode(lying, &st)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("lying tenant count decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("rejecting a lying count allocated %d bytes", grew)
	}
}

func readOneFrame(data []byte) (frame, error) {
	return readFrame(bufio.NewReader(bytes.NewReader(data)))
}

// Frames round-trip; truncation anywhere is an error.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		id := rng.Uint64() >> uint(rng.Intn(64))
		method, errMsg, body := string(randomBytes(rng)), string(randomBytes(rng)), randomBytes(rng)
		if trial%50 == 0 {
			body = make([]byte, 3*firstRead+rng.Intn(100)) // grows past the first chunk
			rng.Read(body)
		}
		enc, err := appendFrame(nil, id, method, errMsg, body)
		if err != nil {
			t.Fatal(err)
		}
		f, err := readOneFrame(enc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if f.id != id || string(f.method) != method || string(f.err) != errMsg || !bytes.Equal(f.body, body) {
			t.Fatalf("trial %d: frame changed in transit", trial)
		}
		step := 1
		if len(enc) > 4096 {
			step = 997
		}
		for cut := 0; cut < len(enc); cut += step {
			if _, err := readOneFrame(enc[:cut]); err == nil {
				t.Fatalf("trial %d: %d-byte prefix of a %d-byte frame was read", trial, cut, len(enc))
			}
		}
	}
	if _, err := appendFrame(nil, 1, "m", "", make([]byte, MaxFrameSize)); err == nil {
		t.Fatal("a frame over MaxFrameSize was encoded")
	}
	if _, err := readOneFrame([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("a length prefix over MaxFrameSize was accepted")
	}
}

// The allocation budgets the serving path is built around: a frame encodes
// into its destination buffer (one allocation when that has to be made,
// none into a connection's reused buffer), and decoding a submit chunk
// allocates the id string only — Data aliases the frame.
func TestWireAllocationBudgets(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	payload := bytes.Repeat([]byte("x"), 510)
	chunk := FlowSubmitChunk{ID: "job-000123", Data: payload}
	body := chunk.appendWire(nil)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := appendFrame(nil, 7, "flow.submit", "", body); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("frame encode: %.0f allocs, budget 1", allocs)
	}
	var wbuf []byte
	var sink bytes.Buffer
	if allocs := testing.AllocsPerRun(100, func() {
		sink.Reset()
		if err := writeFrame(&sink, &wbuf, 7, "flow.submit", "", body); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("frame encode into a reused buffer: %.0f allocs, budget 0", allocs)
	}
	var back FlowSubmitChunk
	if allocs := testing.AllocsPerRun(100, func() {
		if err := back.decodeWire(body); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("FlowSubmitChunk decode: %.0f allocs, budget 1 (the id)", allocs)
	}
	if &back.Data[0] != &body[len(body)-len(payload)] {
		t.Error("decoded Data does not alias the body")
	}
}

// Reading a frame allocates its own buffer and nothing else, whatever the
// body size below the first chunk; splitting the header off allocates
// nothing.
func TestFrameReadAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var src bytes.Reader
	br := bufio.NewReader(&src)
	for _, size := range []int{512, 8 * 512} {
		enc, err := appendFrame(nil, 7, "flow.submit", "", bytes.Repeat([]byte("x"), size))
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			src.Reset(enc)
			br.Reset(&src)
			if _, err := readFrame(br); err != nil {
				t.Fatal(err)
			}
		}); allocs > 1 {
			t.Errorf("readFrame of a %d-byte body: %.0f allocs, budget 1 (the frame's buffer)", size, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := parseFrame(enc[4:]); err != nil {
				t.Fatal(err)
			}
		}); allocs > 0 {
			t.Errorf("parseFrame of a %d-byte body: %.0f allocs, budget 0", size, allocs)
		}
	}
}

// The flow messages' codec budgets. Encoding into a buffer that has room
// allocates nothing (a submit chunk sizes its own buffer: one allocation),
// and decoding allocates each non-empty string field and the tenant list —
// so a status reply costs one more allocation per tenant, its name, and
// nothing else per tenant.
func TestFlowWireAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	chunk := FlowSubmitChunk{ID: "job-000123", Data: bytes.Repeat([]byte("x"), 510)}
	if allocs := testing.AllocsPerRun(100, func() { chunk.appendWire(nil) }); allocs > 1 {
		t.Errorf("FlowSubmitChunk encode: %.0f allocs, budget 1", allocs)
	}
	buf := make([]byte, 0, 4096)
	check := func(name string, m interface {
		wireEncoder
		wireDecoder
	}, encBudget, decBudget float64) {
		t.Helper()
		enc := m.appendWire(nil)
		if allocs := testing.AllocsPerRun(100, func() { buf = m.appendWire(buf[:0]) }); allocs > encBudget {
			t.Errorf("%s encode: %.0f allocs, budget %.0f", name, allocs, encBudget)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := m.decodeWire(enc); err != nil {
				t.Fatal(err)
			}
		}); allocs > decBudget {
			t.Errorf("%s decode: %.0f allocs, budget %.0f", name, allocs, decBudget)
		}
	}
	check("FlowSubmitReply", &FlowSubmitReply{
		Decision: "shed", Level: "shed", RetryAfterMicros: 150000, Reason: "flow: overloaded",
	}, 0, 3)
	check("FlowCancelReply", &FlowCancelReply{Cancelled: true}, 0, 0)
	for _, tenants := range []int{4, 8 * 4} {
		st := &FlowStatusReply{LiveJobs: 3, Admitted: 40, Level: "queue", Tenants: make([]FlowTenantStatus, tenants)}
		for i := range st.Tenants {
			st.Tenants[i] = FlowTenantStatus{Tenant: "tenant-" + strconv.Itoa(i), Admitted: int64(i), Budget: 64}
		}
		// Level, the tenant list, and one name per tenant.
		check("FlowStatusReply with "+strconv.Itoa(tenants)+" tenants", st, 0, float64(2+tenants))
	}
}

// FuzzFrame: arbitrary bytes read as a frame or fail cleanly; whatever
// reads re-encodes to a frame that reads back the same.
func FuzzFrame(f *testing.F) {
	seed := func(id uint64, method, errMsg string, body []byte) []byte {
		enc, err := appendFrame(nil, id, method, errMsg, body)
		if err != nil {
			f.Fatal(err)
		}
		return enc
	}
	full := seed(1, "flow.submit", "", FlowSubmitChunk{ID: "j", Data: []byte("payload")}.appendWire(nil))
	f.Add(full)
	f.Add(seed(1<<63, "", "rpc: unknown method \"x\"", nil))
	f.Add(seed(0, "", "", nil))
	f.Add(full[:3])                                   // short length prefix
	f.Add(full[:len(full)-2])                         // short body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})             // over MaxFrameSize
	f.Add([]byte{0x03, 0xff, 0xff, 0xff, 0x01})       // 64 MiB claimed, one byte sent
	f.Add([]byte{0, 0, 0, 2, 0x80, 0x80})             // id varint runs off the end
	f.Add([]byte{0, 0, 0, 3, 0x01, 0x7f, 'm'})        // method longer than the frame
	f.Add([]byte{0, 0, 0, 0})                         // empty frame
	f.Add([]byte{0, 0, 0, 4, 0x01, 0x00, 0x00, 0x42}) // minimal: id 1, one body byte
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readOneFrame(data)
		if err != nil {
			return
		}
		enc, err := appendFrame(nil, fr.id, string(fr.method), string(fr.err), fr.body)
		if err != nil {
			t.Fatalf("re-encode of a frame that was read: %v", err)
		}
		back, err := readOneFrame(enc)
		if err != nil {
			t.Fatalf("re-read of own encoding: %v", err)
		}
		if !reflect.DeepEqual(fr, back) {
			t.Fatalf("frame changed across re-encoding: %+v -> %+v", fr, back)
		}
	})
}

// FuzzFlowWire: arbitrary bytes decode as each wire body or fail
// cleanly; whatever decodes re-encodes canonically (a fixpoint after one
// round, since overlong varints are tolerated on input).
func FuzzFlowWire(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, zero := range wireTypes {
		msg := reflect.New(reflect.TypeOf(zero))
		enc, _ := Encode(msg.Elem().Interface())
		f.Add(enc)
		randomize(rng, msg.Elem())
		enc, _ = Encode(msg.Elem().Interface())
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // max uvarint as a length
	f.Add([]byte{0x80, 0x00})                                                 // overlong zero
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, zero := range wireTypes {
			typ := reflect.TypeOf(zero)
			msg := reflect.New(typ)
			if err := Decode(data, msg.Interface()); err != nil {
				continue
			}
			enc, err := Encode(msg.Elem().Interface())
			if err != nil {
				t.Fatalf("%v: re-encode: %v", typ, err)
			}
			back := reflect.New(typ)
			if err := Decode(enc, back.Interface()); err != nil {
				t.Fatalf("%v: re-decode of own encoding: %v", typ, err)
			}
			if !reflect.DeepEqual(msg.Interface(), back.Interface()) {
				t.Fatalf("%v: changed across re-encoding: %+v -> %+v", typ, msg.Elem(), back.Elem())
			}
			if enc2, _ := Encode(back.Elem().Interface()); !bytes.Equal(enc, enc2) {
				t.Fatalf("%v: encoding is not a fixpoint", typ)
			}
		}
	})
}
