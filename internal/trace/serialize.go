package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"swift/internal/dag"
)

// Trace serialization: one JSON object per line, so production traces can
// be exported, inspected and replayed byte-identically across machines
// (`swifttrace -out trace.jsonl`, `swiftbench` replays). A one-line trace
// is also the payload of every swiftd submission (`swiftsim -submit`
// writes it, the daemon's FlowSubmit reads it), which is why the codec is
// written by hand rather than with encoding/json's reflection.
//
// Write appends exactly the bytes encoding/json would encode for the
// schema below (key order, omitempty, float format, HTML-safe string
// escaping). Read is a strict one-pass decoder: whatever it accepts,
// encoding/json accepts too and reads the same way, but it rejects unknown,
// repeated and case-variant keys, null for a scalar, a non-integer literal
// for an integer, invalid UTF-8 or a raw control character in a string,
// and a job id that an earlier line already used. The tests hold both
// halves against encoding/json (FuzzTraceCodec); DESIGN.md "Submission
// codec" has the format as a table.
//
//	{"id":str,"tenant":str,"submit_at":num,"stages":[stage,...]|null,"edges":[edge,...]|null}
//	stage: {"name":str,"tasks":int,"idempotent":bool,"sort":true,"scan":true,"sink":true,"scan_bytes":int,"proc_sec":num}
//	edge:  {"from":str,"to":str,"barrier":bool,"bytes":int}
//
// Write omits an empty tenant, false sort/scan/sink flags and a zero
// scan_bytes; Read accepts any key absent as its zero value.

// The keys of each object, in the order Write emits them.
var (
	jobKeys   = []string{"id", "tenant", "submit_at", "stages", "edges"}
	stageKeys = []string{"name", "tasks", "idempotent", "sort", "scan", "sink", "scan_bytes", "proc_sec"}
	edgeKeys  = []string{"from", "to", "barrier", "bytes"}
)

const (
	// lineHint is the buffer Write starts with per job: the median
	// generated job's line is about 450 bytes.
	lineHint = 1 << 10
	// flushAt is how much Write buffers before handing it to the writer.
	flushAt = 64 << 10
	// stageHint sizes a decoded job's stage, edge and operator slices:
	// four in five generated jobs have at most four stages.
	stageHint = 4
)

// Write serialises the trace as JSON lines.
func (t *Trace) Write(w io.Writer) error {
	b := make([]byte, 0, min(len(t.Jobs)*lineHint, flushAt))
	for _, j := range t.Jobs {
		var err error
		if b, err = appendJob(b, j); err != nil {
			return fmt.Errorf("trace: encode %s: %w", j.Job.ID, err)
		}
		if len(b) >= flushAt {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	if len(b) == 0 {
		return nil
	}
	_, err := w.Write(b)
	return err
}

func appendJob(b []byte, j Job) ([]byte, error) {
	var err error
	b = append(b, `{"id":`...)
	b = appendString(b, j.Job.ID)
	if j.Job.Tenant != "" {
		b = append(b, `,"tenant":`...)
		b = appendString(b, j.Job.Tenant)
	}
	b = append(b, `,"submit_at":`...)
	if b, err = appendFloat(b, j.SubmitAt); err != nil {
		return b, err
	}
	b = append(b, `,"stages":`...)
	if stages := j.Job.Stages(); len(stages) == 0 {
		b = append(b, "null"...)
	} else {
		for i, s := range stages {
			b = append(b, listSep(i))
			if b, err = appendStage(b, s); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"edges":`...)
	if edges := j.Job.Edges(); len(edges) == 0 {
		b = append(b, "null"...)
	} else {
		for i, e := range edges {
			b = append(b, listSep(i))
			b = appendEdge(b, e)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

// listSep is what precedes element i of an array: its '[' or a ','.
func listSep(i int) byte {
	if i == 0 {
		return '['
	}
	return ','
}

func appendEdge(b []byte, e *dag.Edge) []byte {
	b = append(b, `{"from":`...)
	b = appendString(b, e.From)
	b = append(b, `,"to":`...)
	b = appendString(b, e.To)
	b = append(b, `,"barrier":`...)
	b = strconv.AppendBool(b, e.Mode == dag.Barrier)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, e.Bytes, 10)
	return append(b, '}')
}

func appendStage(b []byte, s *dag.Stage) ([]byte, error) {
	var sort, scan, sink bool
	for _, op := range s.Operators {
		switch op.Kind {
		case dag.OpMergeSort:
			sort = true
		case dag.OpTableScan:
			scan = true
		case dag.OpAdhocSink:
			sink = true
		default:
			// other operators don't change the serialised shape
		}
	}
	b = append(b, `{"name":`...)
	b = appendString(b, s.Name)
	b = append(b, `,"tasks":`...)
	b = strconv.AppendInt(b, int64(s.Tasks), 10)
	b = append(b, `,"idempotent":`...)
	b = strconv.AppendBool(b, s.Idempotent)
	if sort {
		b = append(b, `,"sort":true`...)
	}
	if scan {
		b = append(b, `,"scan":true`...)
	}
	if sink {
		b = append(b, `,"sink":true`...)
	}
	if s.Cost.ScanBytes != 0 {
		b = append(b, `,"scan_bytes":`...)
		b = strconv.AppendInt(b, s.Cost.ScanBytes, 10)
	}
	b = append(b, `,"proc_sec":`...)
	b, err := appendFloat(b, s.Cost.ProcessSecondsPerTask)
	return append(b, '}'), err
}

// appendFloat formats f as encoding/json does: the shortest decimal that
// reads back to f, in 'f' form unless its magnitude is below 1e-6 or at
// least 1e21, and then in 'e' form with a negative exponent's leading zero
// dropped (1e-07 is written 1e-7).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("unsupported value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on: '"'
// and '\\' are backslash-escaped, as are \b \f \n \r \t; every other byte
// below 0x20 and '<', '>', '&' become \u00XX; U+2028 and U+2029 are
// escaped the same way, and each byte of invalid UTF-8 becomes the escape
// of U+FFFD.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	lit := 0 // start of the run not yet appended
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[lit:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			lit = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[lit:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[lit:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		lit = i
	}
	b = append(b, s[lit:]...)
	return append(b, '"')
}

// Read parses a JSON-lines trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	d := decoder{data: data}
	t := &Trace{Jobs: make([]Job, 0, bytes.Count(data, []byte{'\n'})+1)}
	ids := make(map[string]struct{}) // stays on the stack up to 8 ids
	for d.skipSpace(); d.off < len(d.data); d.skipSpace() {
		start := d.off
		j, err := d.job()
		if err != nil {
			return nil, err
		}
		if _, dup := ids[j.Job.ID]; dup {
			return nil, fmt.Errorf("trace: byte %d: job id %q repeats an earlier job's", start, j.Job.ID)
		}
		ids[j.Job.ID] = struct{}{}
		t.Jobs = append(t.Jobs, j)
	}
	return t, nil
}

// readAll is io.ReadAll with its buffer sized up front when r knows how
// many bytes it holds (bytes.Reader, strings.Reader, bytes.Buffer), so a
// submission is read with one allocation.
func readAll(r io.Reader) ([]byte, error) {
	size := 512
	if lr, ok := r.(interface{ Len() int }); ok {
		size = lr.Len() + 1 // room to see io.EOF without growing
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// decoder scans the input once. Its error is sticky: the first failure
// records its offset and moves off to the end of the input, so every
// loop above it stops and every later failure is dropped.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("trace: byte %d: %s", d.off, fmt.Sprintf(format, args...))
	}
	d.off = len(d.data)
}

func (d *decoder) skipSpace() {
	for d.off < len(d.data) && isSpace(d.data[d.off]) {
		d.off++
	}
}

func isSpace(c byte) bool {
	return c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r')
}

// peek returns the next byte after any whitespace, or 0 at the end.
func (d *decoder) peek() byte {
	d.skipSpace()
	if d.off == len(d.data) {
		return 0
	}
	return d.data[d.off]
}

func (d *decoder) expect(c byte) {
	if d.peek() != c {
		d.fail("want %q", c)
		return
	}
	d.off++
}

// literal consumes s if it comes next.
func (d *decoder) literal(s string) bool {
	d.skipSpace()
	if len(d.data)-d.off < len(s) || string(d.data[d.off:d.off+len(s)]) != s {
		return false
	}
	d.off += len(s)
	return true
}

// nextKey advances through an object whose '{' has been consumed. It
// returns the next key as spelled in keys, having consumed the ':' after
// it, or "" after the closing '}' or on an error. seen holds one bit per
// key already read (so zero before the first key); a key not in keys, or
// one already seen, is an error.
func (d *decoder) nextKey(keys []string, seen *uint) string {
	c := d.peek()
	if c == '}' {
		d.off++
		return ""
	}
	if *seen != 0 {
		if c != ',' {
			d.fail("want ',' or '}'")
			return ""
		}
		d.off++
		d.skipSpace()
	}
	at := d.off
	key := d.str()
	if d.err != nil {
		return ""
	}
	for i, k := range keys {
		if string(key) != k {
			continue
		}
		if *seen&(1<<i) != 0 {
			d.off = at
			d.fail("repeated key %q", k)
			return ""
		}
		*seen |= 1 << i
		d.expect(':')
		if d.err != nil {
			return ""
		}
		return k
	}
	d.off = at
	d.fail("unknown key %q", key)
	return ""
}

// nextElem advances through an array whose '[' has been consumed: it
// reports whether another element follows, consuming the ',' before it,
// or consumes the closing ']'.
func (d *decoder) nextElem(first bool) bool {
	c := d.peek()
	if c == ']' {
		d.off++
		return false
	}
	if !first {
		if c != ',' {
			d.fail("want ',' or ']'")
			return false
		}
		d.off++
	}
	return d.err == nil
}

// str decodes a string. The result aliases the input unless the string
// has an escape in it, so callers copy what they keep.
func (d *decoder) str() []byte {
	if d.peek() != '"' {
		d.fail("want a string")
		return nil
	}
	d.off++
	var out []byte // the decoded string, once an escape has been seen
	lit, i := d.off, d.off
	for i < len(d.data) {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			if out == nil {
				return d.data[lit:i]
			}
			return append(out, d.data[lit:i]...)
		case c == '\\':
			d.off = i
			out = d.escape(append(out, d.data[lit:i]...))
			lit, i = d.off, d.off
		case c < 0x20:
			d.off = i
			d.fail("control character in a string")
			return nil
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				d.off = i
				d.fail("invalid UTF-8 in a string")
				return nil
			}
			i += size
		}
	}
	d.off = i
	d.fail("unterminated string")
	return nil
}

// escape decodes the escape sequence at off onto out.
func (d *decoder) escape(out []byte) []byte {
	if d.off+1 < len(d.data) {
		switch c := d.data[d.off+1]; c {
		case '"', '\\', '/':
			d.off += 2
			return append(out, c)
		case 'b':
			d.off += 2
			return append(out, '\b')
		case 'f':
			d.off += 2
			return append(out, '\f')
		case 'n':
			d.off += 2
			return append(out, '\n')
		case 'r':
			d.off += 2
			return append(out, '\r')
		case 't':
			d.off += 2
			return append(out, '\t')
		case 'u':
			at := d.off
			r := d.hex4()
			if utf16.IsSurrogate(r) {
				// Only a high surrogate followed by an escaped low one
				// is a character.
				if r = utf16.DecodeRune(r, d.hex4()); r == utf8.RuneError && d.err == nil {
					d.off = at
					d.fail("unpaired surrogate")
				}
			}
			return utf8.AppendRune(out, r)
		}
	}
	d.fail("invalid escape")
	return out
}

// hex4 decodes a \uXXXX escape.
func (d *decoder) hex4() rune {
	if len(d.data)-d.off < 6 || d.data[d.off] != '\\' || d.data[d.off+1] != 'u' {
		d.fail("want a \\u escape")
		return utf8.RuneError
	}
	var r rune
	for _, c := range d.data[d.off+2 : d.off+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			d.fail("invalid \\u escape")
			return utf8.RuneError
		}
		r = r<<4 | rune(c)
	}
	d.off += 6
	return r
}

// number scans a number literal.
func (d *decoder) number() []byte {
	d.skipSpace()
	start := d.off
	d.eat('-')
	switch {
	case d.eat('0'):
	case d.digits() == 0:
		d.fail("want a number")
		return nil
	}
	if d.eat('.') && d.digits() == 0 {
		d.fail("want a digit")
	}
	if d.eat('e') || d.eat('E') {
		if !d.eat('+') {
			d.eat('-')
		}
		if d.digits() == 0 {
			d.fail("want a digit")
		}
	}
	return d.data[start:d.off]
}

// eat consumes c if it is the next byte; unlike literal it skips no
// whitespace, so a number cannot have any inside it.
func (d *decoder) eat(c byte) bool {
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

func (d *decoder) digits() int {
	start := d.off
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		d.off++
	}
	return d.off - start
}

// integer decodes an integer literal: ParseInt refuses a fraction or an
// exponent, and anything outside int64.
func (d *decoder) integer() int64 {
	at := d.off
	lit := d.number()
	if d.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		d.off = at
		d.fail("want an integer, got %s", lit)
	}
	return n
}

func (d *decoder) float() float64 {
	at := d.off
	lit := d.number()
	if d.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.off = at
		d.fail("number %s out of range", lit)
	}
	return f
}

func (d *decoder) boolean() bool {
	switch {
	case d.literal("true"):
		return true
	case d.literal("false"):
		return false
	}
	d.fail("want true or false")
	return false
}

// job decodes one job object and builds its DAG.
func (d *decoder) job() (Job, error) {
	start := d.off
	var (
		id, tenant string
		at         float64
		stages     []dag.Stage
		edges      []dag.Edge
		seen       uint
	)
	d.expect('{')
	for key := d.nextKey(jobKeys, &seen); key != ""; key = d.nextKey(jobKeys, &seen) {
		switch key {
		case "id":
			id = string(d.str())
		case "tenant":
			tenant = string(d.str())
		case "submit_at":
			at = d.float()
		case "stages":
			stages = d.stages()
		case "edges":
			edges = d.edges(stages)
		}
	}
	if d.err != nil {
		return Job{}, d.err
	}
	job := dag.NewJob(id)
	job.Tenant = tenant
	for i := range stages {
		if err := job.AddStage(&stages[i]); err != nil {
			return Job{}, fmt.Errorf("trace: byte %d: job %s: %w", start, id, err)
		}
	}
	for i := range edges {
		if err := job.AddEdge(&edges[i]); err != nil {
			return Job{}, fmt.Errorf("trace: byte %d: job %s: %w", start, id, err)
		}
	}
	if err := job.Validate(); err != nil {
		return Job{}, fmt.Errorf("trace: byte %d: job %s: %w", start, id, err)
	}
	return Job{Job: job, SubmitAt: at}, nil
}

// stages decodes a stages array, or null. The stages' operators are cut
// from one slice per job.
func (d *decoder) stages() []dag.Stage {
	if d.literal("null") {
		return nil
	}
	d.expect('[')
	stages := make([]dag.Stage, 0, stageHint)
	ops := make([]dag.Operator, 0, 3*stageHint)
	for first := true; d.nextElem(first); first = false {
		var (
			s                dag.Stage
			sort, scan, sink bool
			seen             uint
		)
		d.expect('{')
		for key := d.nextKey(stageKeys, &seen); key != ""; key = d.nextKey(stageKeys, &seen) {
			switch key {
			case "name":
				s.Name = string(d.str())
			case "tasks":
				s.Tasks = int(d.integer())
			case "idempotent":
				s.Idempotent = d.boolean()
			case "sort":
				sort = d.boolean()
			case "scan":
				scan = d.boolean()
			case "sink":
				sink = d.boolean()
			case "scan_bytes":
				s.Cost.ScanBytes = d.integer()
			case "proc_sec":
				s.Cost.ProcessSecondsPerTask = d.float()
			}
		}
		k := len(ops)
		if scan {
			ops = append(ops, dag.Op(dag.OpTableScan))
		} else {
			ops = append(ops, dag.Op(dag.OpShuffleRead))
		}
		if sort {
			ops = append(ops, dag.Op(dag.OpMergeSort))
		}
		if sink {
			ops = append(ops, dag.Op(dag.OpAdhocSink))
		} else {
			ops = append(ops, dag.Op(dag.OpShuffleWrite))
		}
		s.Operators = ops[k:len(ops):len(ops)]
		stages = append(stages, s)
	}
	return stages
}

// edges decodes an edges array, or null. An endpoint that names one of
// the stages already decoded shares that stage's name string.
func (d *decoder) edges(stages []dag.Stage) []dag.Edge {
	if d.literal("null") {
		return nil
	}
	d.expect('[')
	edges := make([]dag.Edge, 0, stageHint)
	for first := true; d.nextElem(first); first = false {
		e := dag.Edge{Op: dag.OpShuffleRead, Mode: dag.Pipeline}
		var seen uint
		d.expect('{')
		for key := d.nextKey(edgeKeys, &seen); key != ""; key = d.nextKey(edgeKeys, &seen) {
			switch key {
			case "from":
				e.From = stageName(d.str(), stages)
			case "to":
				e.To = stageName(d.str(), stages)
			case "barrier":
				if d.boolean() {
					e.Mode = dag.Barrier
				}
			case "bytes":
				e.Bytes = d.integer()
			}
		}
		edges = append(edges, e)
	}
	return edges
}

func stageName(b []byte, stages []dag.Stage) string {
	for i := range stages {
		if stages[i].Name == string(b) {
			return stages[i].Name
		}
	}
	return string(b)
}
