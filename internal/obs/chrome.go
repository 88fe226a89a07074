package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"swift/internal/metrics"
)

// Chrome trace-event export: the recorded stream renders as one JSON
// document loadable in Perfetto / about://tracing. Each job becomes a
// process; within it, tid 0 ("control") carries the job span and instant
// events, tids 1+g carry graphlet spans, and tids execTidBase+e carry
// task-attempt spans on their executor's timeline (which makes occupancy
// visible). Machine health, Cache Worker and chaos-fault events live in a
// synthetic "cluster" process. Output is deterministic: pids follow first
// appearance in the event stream, unmatched spans flush in sorted order,
// and args maps serialise with encoding/json's sorted keys — two runs of
// one seed are byte-identical.

// execTidBase offsets executor-timeline tids above graphlet tids (a job's
// graphlet count is bounded by its stage count, far below this).
const execTidBase = 1000

// clusterPid hosts machine-scope events; job pids start above it.
const clusterPid = 1

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type openTask struct {
	start    Event
	key      string // job|stage|index|attempt, for deterministic flush
	pid, tid int
}

// WriteChromeTrace renders the event stream as Chrome trace-event JSON.
// A nil recorder writes an empty (but valid) trace.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	body := r.buildChrome()
	var b bytes.Buffer
	b.WriteString("{\"traceEvents\":[")
	for i := range body {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
		enc, err := json.Marshal(&body[i])
		if err != nil {
			return fmt.Errorf("obs: marshal trace event: %w", err)
		}
		b.Write(enc)
	}
	b.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	if _, err := w.Write(b.Bytes()); err != nil {
		return fmt.Errorf("obs: write trace: %w", err)
	}
	return nil
}

// jobState accumulates per-job span bookkeeping during the build pass.
type jobState struct {
	pid       int
	id        string
	submit    int64
	hasSubmit bool
	end       int64
	result    string
	// graphlet index -> [firstQueued, lastDone, haveQueued, haveDone]
	gQueued map[int]int64
	gDone   map[int]int64
	// executor tids seen, for thread_name metadata
	execTids map[int]bool
}

func (r *Recorder) buildChrome() []traceEvent {
	if r == nil || len(r.events) == 0 {
		return nil
	}
	var traceEnd int64
	for i := range r.events {
		if ts := int64(r.events[i].T); ts > traceEnd {
			traceEnd = ts
		}
	}

	jobs := make(map[string]*jobState)
	var jobOrder []*jobState
	nextPid := clusterPid + 1
	clusterUsed := false
	open := make(map[string]*openTask)
	var body []traceEvent

	jobOf := func(id string) *jobState {
		js, ok := jobs[id]
		if !ok {
			js = &jobState{pid: nextPid, id: id, end: traceEnd, result: "unfinished",
				gQueued: make(map[int]int64), gDone: make(map[int]int64),
				execTids: make(map[int]bool)}
			nextPid++
			jobs[id] = js
			jobOrder = append(jobOrder, js)
		}
		return js
	}
	instant := func(e *Event, js *jobState, tid int, cat, name string, args map[string]any) {
		body = append(body, traceEvent{Name: name, Cat: cat, Ph: "i", Ts: int64(e.T),
			Pid: js.pid, Tid: tid, S: "t", Args: args})
	}
	taskKey := func(e *Event) string {
		return fmt.Sprintf("%s|%s|%d|%d", e.Job, e.Stage, e.Index, e.Attempt)
	}
	taskName := func(e *Event) string {
		return fmt.Sprintf("%s[%d]#%d", e.Stage, e.Index, e.Attempt)
	}
	closeTask := func(e *Event, end string, args map[string]any) {
		ot, ok := open[taskKey(e)]
		if !ok {
			return
		}
		delete(open, taskKey(e))
		a := map[string]any{"reason": ot.start.Label, "graphlet": ot.start.Graphlet, "end": end}
		for k, v := range args {
			a[k] = v
		}
		body = append(body, traceEvent{Name: taskName(e), Cat: "task", Ph: "X",
			Ts: int64(ot.start.T), Dur: int64(e.T) - int64(ot.start.T),
			Pid: ot.pid, Tid: ot.tid, Args: a})
	}

	for i := range r.events {
		e := &r.events[i]
		switch e.Kind {
		case EvJobSubmit:
			js := jobOf(e.Job)
			js.submit, js.hasSubmit = int64(e.T), true
		case EvJobDone:
			js := jobOf(e.Job)
			js.end, js.result = int64(e.T), "completed"
		case EvJobFail:
			js := jobOf(e.Job)
			js.end, js.result = int64(e.T), "failed: "+e.Label
			instant(e, js, 0, "recovery", "job-failed", map[string]any{"reason": e.Label})
		case EvJobRestart:
			instant(e, jobOf(e.Job), 0, "recovery", "job-restart", nil)
		case EvGraphletQueued:
			js := jobOf(e.Job)
			if _, seen := js.gQueued[e.Graphlet]; !seen {
				js.gQueued[e.Graphlet] = int64(e.T)
			}
			instant(e, js, 1+e.Graphlet, "graphlet", fmt.Sprintf("queued g%d (%d pending)", e.Graphlet, e.Index), nil)
		case EvGraphletDone:
			js := jobOf(e.Job)
			js.gDone[e.Graphlet] = int64(e.T)
		case EvTaskStart:
			js := jobOf(e.Job)
			tid := execTidBase + e.Executor
			js.execTids[tid] = true
			// A same-key span still open (shouldn't happen: attempts are
			// unique) would leak; close it defensively at this instant.
			closeTask(e, "superseded", nil)
			open[taskKey(e)] = &openTask{start: *e, key: taskKey(e), pid: js.pid, tid: tid}
		case EvTaskFinish:
			closeTask(e, "finish", map[string]any{
				"launch_s": e.Launch, "read_s": e.Read, "process_s": e.Process, "write_s": e.Write})
		case EvTaskAbort:
			closeTask(e, "abort", nil)
		case EvTaskFail:
			closeTask(e, "fail", map[string]any{"kind": e.Label})
			instant(e, jobOf(e.Job), 0, "recovery",
				fmt.Sprintf("fail %s[%d]#%d %s", e.Stage, e.Index, e.Attempt, e.Label), nil)
		case EvOutputLost:
			instant(e, jobOf(e.Job), 0, "recovery",
				fmt.Sprintf("output-lost %s[%d] %s", e.Stage, e.Index, e.Label), nil)
		case EvResend:
			instant(e, jobOf(e.Job), 0, "recovery",
				fmt.Sprintf("resend %s->%s[%d]", e.Label, e.Stage, e.Index), nil)
		case EvShuffleMode:
			instant(e, jobOf(e.Job), 0, "shuffle",
				fmt.Sprintf("shuffle %s>%s=%s", e.Stage, e.To, e.Label),
				map[string]any{"edge_size": e.Index, "bytes": e.Bytes})
		case EvShuffleDegraded:
			instant(e, jobOf(e.Job), 0, "shuffle",
				fmt.Sprintf("degrade %s>%s %s", e.Stage, e.To, e.Label), nil)
		case EvMachineFailed, EvMachineReadOnly, EvMachineHealthy, EvCacheWorkerLost:
			clusterUsed = true
			name := e.Kind.String()
			body = append(body, traceEvent{Name: fmt.Sprintf("%s m%d", name, e.Machine),
				Cat: "machine", Ph: "i", Ts: int64(e.T), Pid: clusterPid, Tid: 1 + e.Machine, S: "t"})
		case EvFault:
			clusterUsed = true
			body = append(body, traceEvent{Name: "fault " + e.Label, Cat: "fault",
				Ph: "i", Ts: int64(e.T), Pid: clusterPid, Tid: 0, S: "t"})
		case EvReclaim:
			instant(e, jobOf(e.Job), 0, "recovery",
				fmt.Sprintf("reclaim g%d (%d tasks, tenant %s)", e.Graphlet, e.Index, e.Label), nil)
		case EvTenantShare:
			// Share accounting has no job/machine timeline to land on; it is
			// carried by the stream hash and breakdowns, not the Chrome view.
		case EvReplicate:
			instant(e, jobOf(e.Job), 0, "shuffle",
				fmt.Sprintf("replicate %s[%d] x%d", e.Stage, e.Index, e.Graphlet),
				map[string]any{"machine": e.Machine})
		case EvReplicaServed:
			instant(e, jobOf(e.Job), 0, "recovery",
				fmt.Sprintf("replica-served %s[%d] m%d", e.Stage, e.Index, e.Machine), nil)
		}
	}

	// Flush unclosed task spans (still running at trace end) in sorted order.
	if len(open) > 0 {
		keys := make([]string, 0, len(open))
		for k := range open {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ot := open[k]
			body = append(body, traceEvent{Name: taskName(&ot.start), Cat: "task", Ph: "X",
				Ts: int64(ot.start.T), Dur: traceEnd - int64(ot.start.T),
				Pid: ot.pid, Tid: ot.tid,
				Args: map[string]any{"reason": ot.start.Label, "graphlet": ot.start.Graphlet, "end": "unfinished"}})
		}
	}

	// Job and graphlet spans, jobs in pid order.
	for _, js := range jobOrder {
		start := js.submit
		if !js.hasSubmit {
			start = 0
		}
		body = append(body, traceEvent{Name: js.id, Cat: "job", Ph: "X",
			Ts: start, Dur: js.end - start, Pid: js.pid, Tid: 0,
			Args: map[string]any{"result": js.result}})
		gs := make([]int, 0, len(js.gQueued))
		for g := range js.gQueued {
			gs = append(gs, g)
		}
		sort.Ints(gs)
		for _, g := range gs {
			from := js.gQueued[g]
			to, done := js.gDone[g]
			state := "done"
			if !done {
				to, state = js.end, "unfinished"
			}
			body = append(body, traceEvent{Name: fmt.Sprintf("g%d", g), Cat: "graphlet", Ph: "X",
				Ts: from, Dur: to - from, Pid: js.pid, Tid: 1 + g,
				Args: map[string]any{"state": state}})
		}
	}

	// Metadata first: process and thread names, cluster then jobs.
	var meta []traceEvent
	md := func(pid, tid int, kind, name string) {
		ev := traceEvent{Name: kind, Ph: "M", Pid: pid, Args: map[string]any{"name": name}}
		ev.Tid = tid
		meta = append(meta, ev)
	}
	if clusterUsed {
		md(clusterPid, 0, "process_name", "cluster")
	}
	for _, js := range jobOrder {
		md(js.pid, 0, "process_name", "job "+js.id)
		md(js.pid, 0, "thread_name", "control")
		gs := make([]int, 0, len(js.gQueued))
		for g := range js.gQueued {
			gs = append(gs, g)
		}
		sort.Ints(gs)
		for _, g := range gs {
			md(js.pid, 1+g, "thread_name", fmt.Sprintf("graphlet %d", g))
		}
		tids := make([]int, 0, len(js.execTids))
		for tid := range js.execTids {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			md(js.pid, tid, "thread_name", fmt.Sprintf("exec %d", tid-execTidBase))
		}
	}
	return append(meta, body...)
}

// WriteReport is the -stats/-trace epilogue the simulator binaries share:
// with stats, the per-job breakdown and writeStats's section go to w; with
// a tracePath, the Chrome trace goes to that file and w gets a "trace
// written" line behind lead (each binary's own indentation). Like the
// writers it calls, it takes a nil recorder as a disabled one.
func (r *Recorder) WriteReport(w io.Writer, stats bool, tracePath, lead string) error {
	if stats {
		if err := r.WriteBreakdown(w); err != nil {
			return err
		}
		if err := r.writeStats(w); err != nil {
			return err
		}
	}
	if tracePath == "" {
		return nil
	}
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := r.WriteChromeTrace(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%strace written to %s (%d events)\n", lead, tracePath, len(r.Events()))
	return err
}

// writeStats renders the -stats section from the event stream: an
// event.<kind> counter for each kind that occurred and the task.work_s
// histogram of EvTaskFinish phase sums, names sorted and formats fixed so
// two runs of one seed print the same bytes.
func (r *Recorder) writeStats(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "obs: recording disabled\n")
		return err
	}
	counts := metrics.NewCounter()
	work := metrics.NewHistogram(0, 600, 60)
	for i := range r.events {
		e := &r.events[i]
		counts.Add(kindCounters[e.Kind], 1)
		if e.Kind == EvTaskFinish {
			work.Add(e.Launch + e.Read + e.Process + e.Write)
		}
	}
	var b bytes.Buffer
	if keys := counts.Keys(); len(keys) > 0 {
		b.WriteString("counters:\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-32s %d\n", k, counts.Get(k))
		}
	}
	if work.Total > 0 {
		fmt.Fprintf(&b, "histograms:\n  task.work_s: range=[%g,%g) total=%d under=%d over=%d\n",
			work.Lo, work.Hi, work.Total, work.Underflow, work.Overflow)
		// One compact row of non-empty bins keeps the section greppable.
		var cells []string
		for i, c := range work.Counts {
			if c > 0 {
				cells = append(cells, fmt.Sprintf("%g:%d", work.BinCenter(i), c))
			}
		}
		if len(cells) > 0 {
			fmt.Fprintf(&b, "    bins %s\n", strings.Join(cells, " "))
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}
