package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"

	"swift/internal/dag"
	"swift/internal/raceflag"
)

// The encoding/json codec the hand-written one replaced, kept as its
// oracle: oracleWrite and oracleRead are the former Write and Read.

type jsonStage struct {
	Name       string  `json:"name"`
	Tasks      int     `json:"tasks"`
	Idempotent bool    `json:"idempotent"`
	Sort       bool    `json:"sort,omitempty"`
	Scan       bool    `json:"scan,omitempty"`
	Sink       bool    `json:"sink,omitempty"`
	ScanBytes  int64   `json:"scan_bytes,omitempty"`
	ProcSec    float64 `json:"proc_sec"`
}

type jsonEdge struct {
	From    string `json:"from"`
	To      string `json:"to"`
	Barrier bool   `json:"barrier"`
	Bytes   int64  `json:"bytes"`
}

type jsonJob struct {
	ID       string      `json:"id"`
	Tenant   string      `json:"tenant,omitempty"`
	SubmitAt float64     `json:"submit_at"`
	Stages   []jsonStage `json:"stages"`
	Edges    []jsonEdge  `json:"edges"`
}

func oracleWrite(t *Trace, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, j := range t.Jobs {
		jj := jsonJob{ID: j.Job.ID, Tenant: j.Job.Tenant, SubmitAt: j.SubmitAt}
		for _, s := range j.Job.Stages() {
			js := jsonStage{
				Name: s.Name, Tasks: s.Tasks, Idempotent: s.Idempotent,
				ScanBytes: s.Cost.ScanBytes, ProcSec: s.Cost.ProcessSecondsPerTask,
			}
			for _, op := range s.Operators {
				switch op.Kind {
				case dag.OpMergeSort:
					js.Sort = true
				case dag.OpTableScan:
					js.Scan = true
				case dag.OpAdhocSink:
					js.Sink = true
				default:
				}
			}
			jj.Stages = append(jj.Stages, js)
		}
		for _, e := range j.Job.Edges() {
			jj.Edges = append(jj.Edges, jsonEdge{
				From: e.From, To: e.To, Barrier: e.Mode == dag.Barrier, Bytes: e.Bytes,
			})
		}
		if err := enc.Encode(&jj); err != nil {
			return fmt.Errorf("trace: encode %s: %w", j.Job.ID, err)
		}
	}
	return bw.Flush()
}

func oracleRead(r io.Reader) (*Trace, error) {
	t := &Trace{}
	dec := json.NewDecoder(r)
	for {
		var jj jsonJob
		if err := dec.Decode(&jj); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: decode: %w", err)
		}
		job := dag.NewJob(jj.ID)
		job.Tenant = jj.Tenant
		for _, s := range jj.Stages {
			var ops []dag.Operator
			if s.Scan {
				ops = append(ops, dag.Op(dag.OpTableScan))
			} else {
				ops = append(ops, dag.Op(dag.OpShuffleRead))
			}
			if s.Sort {
				ops = append(ops, dag.Op(dag.OpMergeSort))
			}
			if s.Sink {
				ops = append(ops, dag.Op(dag.OpAdhocSink))
			} else {
				ops = append(ops, dag.Op(dag.OpShuffleWrite))
			}
			st := &dag.Stage{
				Name: s.Name, Tasks: s.Tasks, Operators: ops, Idempotent: s.Idempotent,
				Cost: dag.Cost{ScanBytes: s.ScanBytes, ProcessSecondsPerTask: s.ProcSec},
			}
			if err := job.AddStage(st); err != nil {
				return nil, fmt.Errorf("trace: job %s: %w", jj.ID, err)
			}
		}
		for _, e := range jj.Edges {
			mode := dag.Pipeline
			if e.Barrier {
				mode = dag.Barrier
			}
			de := &dag.Edge{From: e.From, To: e.To, Op: dag.OpShuffleRead, Mode: mode, Bytes: e.Bytes}
			if err := job.AddEdge(de); err != nil {
				return nil, fmt.Errorf("trace: job %s: %w", jj.ID, err)
			}
		}
		if err := job.Validate(); err != nil {
			return nil, fmt.Errorf("trace: job %s: %w", jj.ID, err)
		}
		t.Jobs = append(t.Jobs, Job{Job: job, SubmitAt: jj.SubmitAt})
	}
	return t, nil
}

// diffJobs describes the first difference between two job lists, or
// returns "": ids, tenants, submit_at bits, every stage field (operators
// included) and every edge field.
func diffJobs(a, b []Job) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d jobs vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		switch {
		case x.Job.ID != y.Job.ID:
			return fmt.Sprintf("job %d: id %q vs %q", i, x.Job.ID, y.Job.ID)
		case x.Job.Tenant != y.Job.Tenant:
			return fmt.Sprintf("job %d: tenant %q vs %q", i, x.Job.Tenant, y.Job.Tenant)
		case math.Float64bits(x.SubmitAt) != math.Float64bits(y.SubmitAt):
			return fmt.Sprintf("job %d: submit_at %v vs %v", i, x.SubmitAt, y.SubmitAt)
		case !reflect.DeepEqual(x.Job.Stages(), y.Job.Stages()):
			return fmt.Sprintf("job %d: stages differ:\n%s\n%s", i, x.Job, y.Job)
		case !reflect.DeepEqual(x.Job.Edges(), y.Job.Edges()):
			return fmt.Sprintf("job %d: edges differ:\n%s\n%s", i, x.Job, y.Job)
		}
	}
	return ""
}

// codecSpecs are the trace.Generate specs bench/ and the tests use.
var codecSpecs = []Spec{
	{Jobs: 3000, Seed: 1, RuntimeCap: 120}, // service_burst, replay_batch's first 2,000
	{Jobs: 400, Seed: 1, Scale: 5, RuntimeCap: 90},
	{Seed: 1, RuntimeCap: 120, Tenants: []TenantSpec{
		{Name: "a", Jobs: 120, ArrivalWindow: 300},
		{Name: "b", Jobs: 240, Rate: 240.0 / 150, BurstAt: 30, BurstDur: 20, BurstFactor: 10},
		{Name: "c", Jobs: 120, ArrivalWindow: 300},
	}},
	{Jobs: 60, Seed: 9, ArrivalWindow: 50},
	{Seed: 4, Tenants: []TenantSpec{
		{Name: "prod", Jobs: 10, Rate: 1},
		{Name: "batch", Jobs: 10, ArrivalWindow: 30},
	}},
	{Jobs: 200, Seed: 3, Scale: 8},
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestWriteReadRoundTrip writes each spec's trace, checks the bytes
// against encoding/json's, and reads them back field for field.
func TestWriteReadRoundTrip(t *testing.T) {
	for _, spec := range codecSpecs {
		orig := Generate(spec)
		var buf, want bytes.Buffer
		if err := orig.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if err := oracleWrite(orig, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want.Bytes()) {
			t.Fatalf("%+v: Write differs from encoding/json at byte %d", spec, firstDiff(buf.Bytes(), want.Bytes()))
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if d := diffJobs(orig.Jobs, got.Jobs); d != "" {
			t.Fatalf("%+v: %s", spec, d)
		}
		// A second write produces identical bytes.
		var again bytes.Buffer
		if err := got.Write(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Errorf("%+v: round-trip bytes differ", spec)
		}
	}
}

func TestTenantRoundTrip(t *testing.T) {
	orig := Generate(Spec{Seed: 4, Tenants: []TenantSpec{
		{Name: "prod", Jobs: 10, Rate: 1},
		{Name: "batch", Jobs: 10, ArrivalWindow: 30},
	}})
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	// A reader that does not know its length, one byte per Read.
	got, err := Read(iotest.OneByteReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Jobs {
		if got.Jobs[i].Job.Tenant != orig.Jobs[i].Job.Tenant {
			t.Fatalf("job %d tenant = %q, want %q", i, got.Jobs[i].Job.Tenant, orig.Jobs[i].Job.Tenant)
		}
	}
	// Untenanted traces serialise without the field at all.
	var plain bytes.Buffer
	if err := Generate(Spec{Jobs: 3, Seed: 1}).Write(&plain); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain.Bytes(), []byte(`"tenant"`)) {
		t.Error("untenanted trace serialised a tenant field")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("{bad json")); err == nil {
		t.Error("bad json accepted")
	}
	// Edge referencing an unknown stage.
	line := `{"id":"x","submit_at":0,"stages":[{"name":"a","tasks":1,"proc_sec":1}],"edges":[{"from":"a","to":"zzz","bytes":1}]}`
	if _, err := Read(strings.NewReader(line)); err == nil {
		t.Error("dangling edge accepted")
	}
	// Empty input is an empty trace.
	tr, err := Read(strings.NewReader(""))
	if err != nil || len(tr.Jobs) != 0 {
		t.Errorf("empty input: %v %v", tr, err)
	}
}

// A job id seen twice in one trace is an error naming it: a replay would
// otherwise drop the second job without a word.
func TestReadRejectsRepeatedJobID(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(Spec{Jobs: 3, Seed: 1}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	first, _, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
	dup := append(buf.Bytes(), append(first, '\n')...)
	_, err := Read(bytes.NewReader(dup))
	if err == nil || !strings.Contains(err.Error(), `"job-0000"`) {
		t.Fatalf("repeated id: err = %v, want one naming job-0000", err)
	}
}

// stageLine is one valid job line for the table cases to vary.
const stageLine = `{"id":"j","submit_at":1.5,"stages":[{"name":"a","tasks":2,"idempotent":true,"scan":true,"scan_bytes":7,"proc_sec":0.25},{"name":"b","tasks":1,"idempotent":false,"sort":true,"sink":true,"proc_sec":2}],"edges":[{"from":"a","to":"b","barrier":true,"bytes":9}]}`

// readAccepts are inputs outside what Write emits that Read accepts; each
// must read exactly as encoding/json reads it.
var readAccepts = map[string]string{
	"whitespace everywhere": " \t\r\n{ \"id\" : \"j\" ,\n\"submit_at\"\t:\r1 , \"stages\" : [ { \"name\" : \"a\" , \"tasks\" : 1 } ] , \"edges\" : [ ] }\n\n",
	"keys in any order":     `{"edges":[{"bytes":9,"barrier":true,"to":"b","from":"a"}],"stages":[{"proc_sec":2,"sink":true,"sort":true,"idempotent":false,"tasks":1,"name":"b"},{"name":"a","tasks":2}],"submit_at":1.5,"id":"j"}`,
	"keys absent":           `{"stages":[{"name":"a","tasks":1}]}`,
	"null edges":            `{"id":"j","submit_at":0,"stages":[{"name":"a","tasks":1,"idempotent":true,"proc_sec":1}],"edges":null}`,
	"escapes":               `{"id":"a\u003cb\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00\u0000","tenant":"\u2028","stages":[{"name":"\u0073","tasks":1}],"edges":null}`,
	"raw UTF-8":             `{"id":"żółw 🐢 ` + "\u2029" + `","stages":[{"name":"a","tasks":1}]}`,
	"number forms":          `{"id":"j","submit_at":-0,"stages":[{"name":"a","tasks":1,"scan_bytes":-0,"proc_sec":1E+2},{"name":"b","tasks":3,"scan_bytes":-9223372036854775808,"proc_sec":12.5e-7}],"edges":null}`,
	"float extremes":        `{"id":"j","submit_at":4.9e-324,"stages":[{"name":"a","tasks":1,"proc_sec":1.7976931348623157e308}]}`,
	"underflow to zero":     `{"id":"j","submit_at":1e-400,"stages":[{"name":"a","tasks":1}]}`,
	"two jobs, no newline":  `{"id":"x","stages":[{"name":"a","tasks":1}]}{"id":"y","stages":[{"name":"a","tasks":1}]}`,
	"empty":                 "",
	"only whitespace":       " \n\t\r\n",
	"a Write line":          stageLine + "\n",
}

func TestReadAcceptsWhatEncodingJSONReadsTheSame(t *testing.T) {
	for name, in := range readAccepts {
		got, err := Read(strings.NewReader(in))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want, err := oracleRead(strings.NewReader(in))
		if err != nil {
			t.Errorf("%s: encoding/json rejects it: %v", name, err)
			continue
		}
		if d := diffJobs(got.Jobs, want.Jobs); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
}

// TestReadAcceptsWhitespaceBetweenEveryToken reads a line with JSON
// whitespace before, between and after every token.
func TestReadAcceptsWhitespaceBetweenEveryToken(t *testing.T) {
	want, err := Read(strings.NewReader(stageLine))
	if err != nil {
		t.Fatal(err)
	}
	spaced := " \t\r\n" + strings.Join(tokens(stageLine), " \t\r\n") + " \t\r\n"
	got, err := Read(strings.NewReader(spaced))
	if err != nil {
		t.Fatalf("%v\n%s", err, spaced)
	}
	if d := diffJobs(got.Jobs, want.Jobs); d != "" {
		t.Fatal(d)
	}
}

// tokens splits a line of JSON without whitespace into its tokens.
func tokens(line string) []string {
	var out []string
	for i := 0; i < len(line); {
		j := i + 1
		switch {
		case strings.IndexByte("{}[]:,", line[i]) >= 0:
		case line[i] == '"':
			for line[j] != '"' {
				if line[j] == '\\' {
					j++
				}
				j++
			}
			j++
		default:
			for j < len(line) && strings.IndexByte("{}[]:,", line[j]) < 0 {
				j++
			}
		}
		out = append(out, line[i:j])
		i = j
	}
	return out
}

// readRejects are inputs Read refuses, keyed by what is wrong. Each
// error gives the byte offset. Some of them encoding/json accepts: the
// codec's grammar is the narrower one.
var readRejects = map[string]string{
	"unknown key":              `{"id":"j","color":"red","stages":[{"name":"a","tasks":1}]}`,
	"unknown stage key":        `{"id":"j","stages":[{"name":"a","tasks":1,"cpu":2}]}`,
	"repeated key":             `{"id":"j","id":"k","stages":[{"name":"a","tasks":1}]}`,
	"repeated edge key":        `{"id":"j","stages":[{"name":"a","tasks":1},{"name":"b","tasks":1}],"edges":[{"from":"a","to":"b","to":"b"}]}`,
	"case-variant key":         `{"ID":"j","stages":[{"name":"a","tasks":1}]}`,
	"string for an integer":    `{"id":"j","stages":[{"name":"a","tasks":"1"}]}`,
	"number for a string":      `{"id":7,"stages":[{"name":"a","tasks":1}]}`,
	"number for a bool":        `{"id":"j","stages":[{"name":"a","tasks":1,"idempotent":1}]}`,
	"object for an array":      `{"id":"j","stages":{}}`,
	"null for a string":        `{"id":null,"stages":[{"name":"a","tasks":1}]}`,
	"null for an integer":      `{"id":"j","stages":[{"name":"a","tasks":null}]}`,
	"null for a float":         `{"id":"j","submit_at":null,"stages":[{"name":"a","tasks":1}]}`,
	"null for a bool":          `{"id":"j","stages":[{"name":"a","tasks":1}],"edges":[{"from":"a","to":"a","barrier":null}]}`,
	"null stage":               `{"id":"j","stages":[null]}`,
	"fraction for an integer":  `{"id":"j","stages":[{"name":"a","tasks":1.0}]}`,
	"exponent for an integer":  `{"id":"j","stages":[{"name":"a","tasks":1e2}]}`,
	"integer overflow":         `{"id":"j","stages":[{"name":"a","tasks":1,"scan_bytes":9223372036854775808}]}`,
	"float overflow":           `{"id":"j","submit_at":1e400,"stages":[{"name":"a","tasks":1}]}`,
	"leading zero":             `{"id":"j","submit_at":01,"stages":[{"name":"a","tasks":1}]}`,
	"leading plus":             `{"id":"j","submit_at":+1,"stages":[{"name":"a","tasks":1}]}`,
	"bare minus":               `{"id":"j","submit_at":-,"stages":[{"name":"a","tasks":1}]}`,
	"space after minus":        `{"id":"j","submit_at":- 1,"stages":[{"name":"a","tasks":1}]}`,
	"bare point":               `{"id":"j","submit_at":1.,"stages":[{"name":"a","tasks":1}]}`,
	"leading point":            `{"id":"j","submit_at":.5,"stages":[{"name":"a","tasks":1}]}`,
	"bare exponent":            `{"id":"j","submit_at":1e,"stages":[{"name":"a","tasks":1}]}`,
	"invalid UTF-8":            "{\"id\":\"j\xff\",\"stages\":[{\"name\":\"a\",\"tasks\":1}]}",
	"encoded surrogate":        "{\"id\":\"j\xed\xa0\x80\",\"stages\":[{\"name\":\"a\",\"tasks\":1}]}",
	"raw newline in a string":  "{\"id\":\"j\nk\",\"stages\":[{\"name\":\"a\",\"tasks\":1}]}",
	"raw NUL in a string":      "{\"id\":\"j\x00\",\"stages\":[{\"name\":\"a\",\"tasks\":1}]}",
	"unknown escape":           `{"id":"j\x","stages":[{"name":"a","tasks":1}]}`,
	"short \\u escape":         `{"id":"j\u12","stages":[{"name":"a","tasks":1}]}`,
	"lone high surrogate":      `{"id":"j\ud800","stages":[{"name":"a","tasks":1}]}`,
	"lone low surrogate":       `{"id":"j\udc00","stages":[{"name":"a","tasks":1}]}`,
	"high surrogate, no low":   `{"id":"j\ud800\u0041","stages":[{"name":"a","tasks":1}]}`,
	"trailing bytes":           `{"id":"j","stages":[{"name":"a","tasks":1}]}x`,
	"trailing bracket":         `{"id":"j","stages":[{"name":"a","tasks":1}]} ]`,
	"trailing comma in object": `{"id":"j","stages":[{"name":"a","tasks":1}],}`,
	"trailing comma in array":  `{"id":"j","stages":[{"name":"a","tasks":1},]}`,
	"missing comma":            `{"id":"j" "stages":[{"name":"a","tasks":1}]}`,
	"missing colon":            `{"id" "j","stages":[{"name":"a","tasks":1}]}`,
	"top-level array":          `[{"id":"j","stages":[{"name":"a","tasks":1}]}]`,
	"top-level null":           `null`,
	"unterminated string":      `{"id":"j`,
}

func TestReadRejects(t *testing.T) {
	for name, in := range readRejects {
		_, err := Read(strings.NewReader(in))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "trace: byte ") {
			t.Errorf("%s: error %q gives no byte offset", name, err)
		}
	}
	// Grammatically fine but not a job: null stages leave it with none.
	_, err := Read(strings.NewReader(`{"id":"j","stages":null}`))
	if err == nil || !strings.Contains(err.Error(), "no stages") {
		t.Errorf("null stages: err = %v, want the job's no-stages error", err)
	}
}

// TestReadRejectsEveryCut cuts a valid line at every byte offset: no
// prefix is a job.
func TestReadRejectsEveryCut(t *testing.T) {
	for i := 1; i < len(stageLine); i++ {
		if _, err := Read(strings.NewReader(stageLine[:i])); err == nil {
			t.Errorf("prefix of %d bytes accepted: %s", i, stageLine[:i])
		}
	}
	if _, err := Read(strings.NewReader(stageLine)); err != nil {
		t.Fatalf("the whole line: %v", err)
	}
}

// FuzzTraceCodec holds the codec against encoding/json both ways: fuzzed
// bytes read as encoding/json reads them whenever Read accepts them, and a
// trace built from fuzzed names, numbers and counts writes exactly
// encoding/json's bytes and reads back to itself.
func FuzzTraceCodec(f *testing.F) {
	var gen bytes.Buffer
	if err := Generate(Spec{Jobs: 4, Seed: 2, ArrivalWindow: 9}).Write(&gen); err != nil {
		f.Fatal(err)
	}
	seeds := []string{gen.String(), stageLine}
	for _, in := range readAccepts {
		seeds = append(seeds, in)
	}
	for _, in := range readRejects {
		seeds = append(seeds, in)
	}
	sort.Strings(seeds)
	for i, in := range seeds {
		f.Add([]byte(in), "job-1", "", "S", float64(i)*0.37, 1e-7, int64(i+1), int64(i)<<33)
	}
	f.Add([]byte{}, "a<b>&\u2028\x00\xff", "t\u2029\"\\", "n\xc3", 2.5, 1e21, int64(-3), int64(-1))
	f.Add([]byte{}, "inf", "", "s", 1.0, math.Inf(1), int64(1), int64(3))
	f.Add([]byte{}, "id", "", "", 1e21, -1e-6, int64(7), int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, data []byte, id, tenant, name string, at, proc float64, tasks, n int64) {
		got, err := Read(bytes.NewReader(data))
		if err == nil {
			want, oerr := oracleRead(bytes.NewReader(data))
			if oerr != nil {
				t.Fatalf("Read accepted what encoding/json rejects (%v): %q", oerr, data)
			}
			if d := diffJobs(got.Jobs, want.Jobs); d != "" {
				t.Fatalf("Read and encoding/json disagree on %q: %s", data, d)
			}
		}

		tr := fuzzTrace(id, tenant, name, at, proc, tasks, n)
		var out, want bytes.Buffer
		werr, oerr := tr.Write(&out), oracleWrite(tr, &want)
		if (werr == nil) != (oerr == nil) {
			t.Fatalf("Write err %v, encoding/json err %v", werr, oerr)
		}
		if werr != nil {
			return
		}
		if !bytes.Equal(out.Bytes(), want.Bytes()) {
			t.Fatalf("Write differs from encoding/json:\n%s\n%s", out.Bytes(), want.Bytes())
		}
		back, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("Read(Write(t)): %v\n%s", err, out.Bytes())
		}
		oback, err := oracleRead(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if d := diffJobs(back.Jobs, oback.Jobs); d != "" {
			t.Fatalf("Read(Write(t)) and encoding/json disagree: %s", d)
		}
		// Invalid UTF-8 is written as U+FFFD, so only valid names come
		// back as they went in.
		if utf8.ValidString(id) && utf8.ValidString(tenant) && utf8.ValidString(name) {
			if d := diffJobs(back.Jobs, tr.Jobs); d != "" {
				t.Fatalf("Read(Write(t)) != t: %s", d)
			}
		}
	})
}

// fuzzTrace builds a two-job trace from fuzzed values: a chain of one to
// four stages named after name, and a one-stage job with no tenant and no
// edges.
func fuzzTrace(id, tenant, name string, at, proc float64, tasks, n int64) *Trace {
	if tasks <= 0 {
		tasks = 1
	}
	chain := dag.NewJob(id)
	chain.Tenant = tenant
	stages := 1 + int(uint64(n)%4)
	for i := 0; i < stages; i++ {
		first := dag.Op(dag.OpShuffleRead)
		if i == 0 {
			first = dag.Op(dag.OpTableScan)
		}
		ops := []dag.Operator{first}
		sorted := n>>i&1 == 1
		if sorted {
			ops = append(ops, dag.Op(dag.OpMergeSort))
		}
		if i == stages-1 {
			ops = append(ops, dag.Op(dag.OpAdhocSink))
		} else {
			ops = append(ops, dag.Op(dag.OpShuffleWrite))
		}
		s := &dag.Stage{
			Name: fmt.Sprint(name, i), Tasks: int(tasks) + i, Operators: ops, Idempotent: n>>(i+8)&1 == 1,
			Cost: dag.Cost{ScanBytes: n >> (2 * i), ProcessSecondsPerTask: proc * float64(i+1)},
		}
		if err := chain.AddStage(s); err != nil {
			panic(err)
		}
		if i > 0 {
			mode := dag.Pipeline
			if sorted {
				mode = dag.Barrier
			}
			e := &dag.Edge{From: fmt.Sprint(name, i-1), To: s.Name, Op: dag.OpShuffleRead, Mode: mode, Bytes: n ^ int64(i)}
			if err := chain.AddEdge(e); err != nil {
				panic(err)
			}
		}
	}
	single := dag.NewJob(id + "+")
	if err := single.AddStage(&dag.Stage{Name: name + "x", Tasks: 1, Operators: []dag.Operator{dag.Op(dag.OpShuffleRead), dag.Op(dag.OpShuffleWrite)}}); err != nil {
		panic(err)
	}
	return &Trace{Jobs: []Job{{Job: chain, SubmitAt: at}, {Job: single, SubmitAt: -at}}}
}

// medianJob is the median-sized job of the service_burst trace, the shape
// of one swiftd submission, with its encoded line.
func medianJob(tb testing.TB) (Job, []byte) {
	tr := Generate(Spec{Jobs: 3000, Seed: 1, RuntimeCap: 120})
	lines := make([][]byte, len(tr.Jobs))
	for i, j := range tr.Jobs {
		var buf bytes.Buffer
		if err := (&Trace{Jobs: []Job{j}}).Write(&buf); err != nil {
			tb.Fatal(err)
		}
		lines[i] = buf.Bytes()
	}
	idx := make([]int, len(lines))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return len(lines[idx[a]]) < len(lines[idx[b]]) })
	m := idx[len(idx)/2]
	return tr.Jobs[m], lines[m]
}

// copies returns n copies of a job line with distinct ids of the id's
// length, so every copy decodes with the same allocations.
func copies(tb testing.TB, j Job, n int) (*Trace, []byte) {
	t := &Trace{}
	for i := 0; i < n; i++ {
		c := j.Job.Clone()
		c.ID = fmt.Sprintf("%s-%d", c.ID, i)
		t.Jobs = append(t.Jobs, Job{Job: c, SubmitAt: j.SubmitAt})
	}
	var buf bytes.Buffer
	if err := t.Write(&buf); err != nil {
		tb.Fatal(err)
	}
	return t, buf.Bytes()
}

// The codec's allocation budgets on the median submission (3 stages, 2
// edges), each the count measured when it was set; encoding/json took 69
// to read and 10 to write the same one-job input. Per job, Read makes the
// id and stage-name strings, one slice each of stages, operators and
// edges, and the dag.Job with its topological order; Write makes the
// Stages and Edges copies. Per input, Read makes the bytes.Reader the
// caller wraps the input in, the buffer it reads it into, the Trace and
// its Jobs slice; Write makes its buffer.
const (
	readAllocsPerJob    = 21
	readAllocsPerInput  = 4
	writeAllocsPerJob   = 2
	writeAllocsPerInput = 1
)

// allocsLinear checks that run costs exactly perInput + n*perJob
// allocations for inputs of 1 and 8 jobs: the same count per job at both
// sizes, so nothing grows with the input but the jobs themselves.
func allocsLinear(t *testing.T, what string, perJob, perInput float64, run func(n int) func()) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	for _, n := range []int{1, 8} {
		got := testing.AllocsPerRun(50, run(n))
		if want := perInput + float64(n)*perJob; got != want {
			t.Errorf("%s of %d jobs: %v allocations, want %v + %d*%v = %v", what, n, got, perInput, n, perJob, want)
		}
	}
}

func TestReadAllocs(t *testing.T) {
	j, _ := medianJob(t)
	allocsLinear(t, "Read", readAllocsPerJob, readAllocsPerInput, func(n int) func() {
		_, in := copies(t, j, n)
		return func() {
			if _, err := Read(bytes.NewReader(in)); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestWriteAllocs(t *testing.T) {
	j, _ := medianJob(t)
	allocsLinear(t, "Write", writeAllocsPerJob, writeAllocsPerInput, func(n int) func() {
		tr, _ := copies(t, j, n)
		return func() {
			if err := tr.Write(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func BenchmarkReadJob(b *testing.B) {
	_, line := medianJob(b)
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(line)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteJob(b *testing.B) {
	j, line := medianJob(b)
	tr := &Trace{Jobs: []Job{j}}
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tr.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
