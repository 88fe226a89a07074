package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// (job, query, submit) share an id; parent is the index of the span that
// caused this one, -1 for a root.
type span struct {
	name       string
	id         string
	start, end time.Duration // since the recorder's origin
	parent     int
}

// recorder keeps spans in memory for the traced pass; nothing is written
// until the run ends. A nil recorder records nothing, so the
// untraced pass runs the same code without the cost.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now()}
}

// reserve makes room for n more spans, so that recording them does not
// show up as allocation in the code being measured.
func (r *recorder) reserve(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cap(r.spans)-len(r.spans) < n {
		r.spans = append(make([]span, 0, len(r.spans)+n), r.spans...)
	}
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name, id string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, id: id, start: now, end: -1, parent: parent})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// add records a finished span whose times the caller measured itself.
func (r *recorder) add(name, id string, parent int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, id: id, start: start.Sub(r.origin), end: end.Sub(r.origin), parent: parent})
	r.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its direct children cover
// (overlapping children are counted once). Unfinished spans are skipped.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		out[s.name] += s.end - s.start - covered(spans, children[i], s.start, s.end)
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped to
// [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
	var total time.Duration
	cur := lo
	for _, k := range kids {
		s, e := spans[k].start, spans[k].end
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// totalTimes returns the summed duration per span name.
func totalTimes(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.end >= 0 {
			out[s.name] += s.end - s.start
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (the format
// Perfetto and chrome://tracing load): one complete ("X") event per span,
// one track per request id, times in microseconds.
func (r *recorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tids := make(map[string]int)
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end < 0 {
			continue
		}
		tid, ok := tids[s.id]
		if !ok {
			tid = len(tids) + 1
			tids[s.id] = tid
		}
		ev := event{Name: s.name, Cat: "bench", Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(s.start) / float64(time.Microsecond), Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]string{"id": s.id}}
		if s.parent >= 0 {
			ev.Args["parent"] = fmt.Sprintf("%s#%d", r.spans[s.parent].name, s.parent)
		}
		events = append(events, ev)
	}
	return json.NewEncoder(w).Encode(map[string]interface{}{"traceEvents": events, "displayTimeUnit": "ms"})
}
