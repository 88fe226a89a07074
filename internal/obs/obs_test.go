package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"swift/internal/baseline"
	"swift/internal/chaos"
	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/obs"
	"swift/internal/sim"
	"swift/internal/simrun"
	"swift/internal/tpch"
)

// failMachine injects a machine crash at 20 s of virtual time — with the
// small cluster saturated by q9, this reliably kills running tasks and
// exercises the whole recovery path. failMachineLate crashes the machine
// near the end of the run (q9 on this cluster finishes around 284 s), so
// the killed tail tasks re-run last and the recovery lands on the
// critical path.
const (
	failMachine     = "machine"
	failMachineLate = "machine-late"
)

// runQ9 executes one q9 simulation with an optional injected fault
// ("machine" crashes machine 3; any other non-empty value names a stage for
// a task failure), returning the results (nil rec runs with obs off).
func runQ9(t *testing.T, seed int64, rec *obs.Recorder, fail string) *simrun.Results {
	t.Helper()
	job := tpch.Query(9)
	opts := baseline.Swift()
	opts.Obs = rec
	r := simrun.New(simrun.Config{
		Cluster: cluster.Config{Machines: 20, ExecutorsPerMachine: 8, Model: cluster.DefaultModel()},
		Options: opts,
		Seed:    seed,
	})
	r.SubmitAt(0, job)
	switch fail {
	case "":
	case failMachine:
		r.Engine().At(20*sim.Second, func() { r.CrashMachine(3) })
	case failMachineLate:
		r.Engine().At(275*sim.Second, func() { r.CrashMachine(3) })
	default:
		r.InjectTaskFailureAt(20*sim.Second, job.ID, fail, core.FailCrash)
	}
	res := r.Run()
	if jr := res.Jobs[job.ID]; jr == nil || !jr.Completed {
		t.Fatalf("q9 did not complete (seed %d, fail %q)", seed, fail)
	}
	return res
}

func chromeJSON(t *testing.T, rec *obs.Recorder) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rec.WriteChromeTrace(&b); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return b.Bytes()
}

// TestTraceDeterminism is the hard contract: two runs of the same seed
// produce the identical event stream — equal FNV hashes and byte-identical
// Chrome trace and -stats report (breakdown table and counters).
func TestTraceDeterminism(t *testing.T) {
	recs := [2]*obs.Recorder{obs.New(), obs.New()}
	for _, rec := range recs {
		runQ9(t, 7, rec, failMachine)
	}
	if h0, h1 := recs[0].StreamHash(), recs[1].StreamHash(); h0 != h1 {
		t.Fatalf("stream hashes differ across same-seed runs: %016x != %016x", h0, h1)
	}
	if len(recs[0].Events()) == 0 {
		t.Fatal("no events recorded")
	}
	if j0, j1 := chromeJSON(t, recs[0]), chromeJSON(t, recs[1]); !bytes.Equal(j0, j1) {
		t.Fatal("chrome traces not byte-identical across same-seed runs")
	}
	s0, s1 := statsReport(t, recs[0]), statsReport(t, recs[1])
	if s0 != s1 {
		t.Fatalf("-stats reports differ across same-seed runs:\n%s\n---\n%s", s0, s1)
	}
	if !strings.Contains(s0, "counters:\n") || !strings.Contains(s0, "task.work_s:") {
		t.Fatalf("-stats report has no counters or work histogram:\n%s", s0)
	}
}

// TestHashRecorderMatchesFull: on one seeded run with a recovery in it, a
// hash-only recorder gives the stream hash a full recorder gives, and
// keeps no events; with nothing recorded, it and the nil recorder give the
// empty-stream hash, the FNV-1a offset.
func TestHashRecorderMatchesFull(t *testing.T) {
	full, hash := obs.New(), obs.NewHash()
	runQ9(t, 7, full, failMachine)
	runQ9(t, 7, hash, failMachine)
	if len(full.Events()) == 0 {
		t.Fatal("no events recorded")
	}
	if h, f := hash.StreamHash(), full.StreamHash(); h != f {
		t.Errorf("hash-only recorder %016x, full recorder %016x", h, f)
	}
	if n := len(hash.Events()); n != 0 {
		t.Errorf("hash-only recorder kept %d events", n)
	}
	const empty = 14695981039346656037
	if h, n := obs.NewHash().StreamHash(), (*obs.Recorder)(nil).StreamHash(); h != empty || n != empty {
		t.Errorf("empty-stream hashes: hash-only %016x, nil %016x, want %016x", h, n, uint64(empty))
	}
}

// statsReport returns rec's -stats report: WriteReport with stats on and
// no trace file.
func statsReport(t *testing.T, rec *obs.Recorder) string {
	t.Helper()
	var b bytes.Buffer
	if err := rec.WriteReport(&b, true, "", ""); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	return b.String()
}

// statsSection returns the counters and histograms that end rec's -stats
// report, after the breakdown table.
func statsSection(t *testing.T, rec *obs.Recorder) string {
	t.Helper()
	out := statsReport(t, rec)
	i := strings.Index(out, "counters:\n")
	if i < 0 {
		t.Fatalf("no counters in the -stats report:\n%s", out)
	}
	return out[i:]
}

// TestRecordingDoesNotPerturb asserts the observer effect is zero: every
// Results field is identical with recording on and off.
func TestRecordingDoesNotPerturb(t *testing.T) {
	for _, failStage := range []string{"", failMachine} {
		off := runQ9(t, 11, nil, failStage)
		on := runQ9(t, 11, obs.New(), failStage)
		if off.Makespan != on.Makespan {
			t.Fatalf("failStage=%q: makespan changed with recording on: %v != %v", failStage, off.Makespan, on.Makespan)
		}
		offJobs, onJobs := off.SortedJobs(), on.SortedJobs()
		if len(offJobs) != len(onJobs) {
			t.Fatalf("failStage=%q: job count changed", failStage)
		}
		for i := range offJobs {
			a, b := offJobs[i], onJobs[i]
			if a.ID != b.ID || a.Submit != b.Submit || a.Finish != b.Finish ||
				a.Completed != b.Completed || a.Failed != b.Failed ||
				a.Restarts != b.Restarts || a.Resends != b.Resends ||
				len(a.Samples) != len(b.Samples) {
				t.Fatalf("failStage=%q: job %s summary changed with recording on", failStage, a.ID)
			}
			if !reflect.DeepEqual(a.Samples, b.Samples) {
				t.Fatalf("failStage=%q: job %s task samples changed with recording on", failStage, a.ID)
			}
			if !reflect.DeepEqual(a.Phases, b.Phases) {
				t.Fatalf("failStage=%q: job %s phase records changed with recording on", failStage, a.ID)
			}
		}
		if !reflect.DeepEqual(off.ExecSeries.Points(), on.ExecSeries.Points()) {
			t.Fatalf("failStage=%q: executor series changed with recording on", failStage)
		}
	}
}

// TestChromeTraceWellFormed checks the export parses as JSON and carries
// the span/event structure the ISSUE requires: job, graphlet and
// task-attempt spans, shuffle-mode instants, and recovery instants when a
// failure was injected.
func TestChromeTraceWellFormed(t *testing.T) {
	rec := obs.New()
	runQ9(t, 3, rec, failMachine)
	raw := chromeJSON(t, rec)

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := map[string]int{}
	instants := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ts < 0 || e.Dur < 0 {
			t.Fatalf("negative ts/dur in event %q", e.Name)
		}
		switch e.Ph {
		case "X":
			spans[e.Cat]++
		case "i":
			instants[e.Cat]++
		case "M":
		default:
			t.Fatalf("unexpected phase %q in event %q", e.Ph, e.Name)
		}
	}
	for _, cat := range []string{"job", "graphlet", "task"} {
		if spans[cat] == 0 {
			t.Fatalf("no %q spans in trace (spans: %v)", cat, spans)
		}
	}
	if instants["shuffle"] == 0 {
		t.Fatalf("no shuffle-mode instants in trace (instants: %v)", instants)
	}
	if instants["recovery"] == 0 {
		t.Fatalf("no recovery instants despite injected failure (instants: %v)", instants)
	}
	job := tpch.Query(9)
	if got := spans["task"]; got < job.NumTasks() {
		t.Fatalf("fewer task spans (%d) than tasks (%d)", got, job.NumTasks())
	}
}

// TestNilRecorderSafe exercises every recorder method on a nil receiver:
// all must no-op and the exports must still produce output.
func TestNilRecorderSafe(t *testing.T) {
	var r *obs.Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.SetClock(func() sim.Time { return 0 })
	r.JobSubmitted("j", 1, 1, 1)
	r.JobCompleted("j")
	r.JobFailed("j", "x")
	r.JobRestarted("j")
	r.GraphletQueued("j", 0, 1)
	r.GraphletDone("j", 0)
	r.TaskStarted("j", "s", 0, 1, 0, 0, "fresh")
	r.TaskFinished("j", "s", 0, 1, 0, 1, 2, 3, 4)
	r.TaskAborted("j", "s", 0, 1, 0)
	r.TaskFailed("j", "s", 0, 1, "crash")
	r.OutputLost("j", "s", 0, "no-step")
	r.Resend("j", "s", 0, "p")
	r.ShuffleModeSelected("j", "a", "b", "Direct", 4, 100)
	r.ShuffleDegraded("j", "a", "b", "Local", "Direct")
	r.MachineFailed(0)
	r.MachineReadOnly(0)
	r.MachineHealthy(0)
	r.CacheWorkerLost(0)
	r.Fault("straggler", "t")
	if got := r.Events(); got != nil {
		t.Fatalf("nil recorder holds events: %v", got)
	}
	var b bytes.Buffer
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatalf("nil recorder trace is not valid JSON: %s", b.String())
	}
	b.Reset()
	if err := r.WriteBreakdown(&b); err != nil {
		t.Fatalf("nil WriteBreakdown: %v", err)
	}
	if got := statsReport(t, r); !strings.HasSuffix(got, "obs: recording disabled\n") {
		t.Fatalf("nil -stats report = %q, want it to end in the disabled line", got)
	}
	if r.StreamHash() != (*obs.Recorder)(nil).StreamHash() {
		t.Fatal("nil stream hash unstable")
	}
}

// TestBreakdownAccountsForJobTime pins the critical-path invariants: the
// per-job total matches the job's measured latency, and the attributed
// columns sum back to the total.
func TestBreakdownAccountsForJobTime(t *testing.T) {
	rec := obs.New()
	res := runQ9(t, 5, rec, "")
	bds := rec.Breakdowns()
	if len(bds) != 1 {
		t.Fatalf("want 1 job breakdown, got %d", len(bds))
	}
	bd := bds[0]
	jr := res.Jobs[bd.Job]
	if jr == nil {
		t.Fatalf("breakdown names unknown job %q", bd.Job)
	}
	if diff := math.Abs(bd.Total - jr.Duration()); diff > 1e-6 {
		t.Fatalf("breakdown total %.6fs != job duration %.6fs", bd.Total, jr.Duration())
	}
	sum := bd.Queue + bd.Launch + bd.Shuffle + bd.Compute + bd.Wait + bd.Recovery
	if diff := math.Abs(sum - bd.Total); diff > 1e-3 {
		t.Fatalf("columns sum to %.6fs, total is %.6fs", sum, bd.Total)
	}
	if bd.Compute <= 0 || bd.Shuffle <= 0 {
		t.Fatalf("clean q9 run should attribute compute and shuffle time: %+v", bd)
	}
	if bd.Recovery != 0 {
		t.Fatalf("clean run attributed recovery time: %+v", bd)
	}
	if bd.Result != "completed" {
		t.Fatalf("result = %q, want completed", bd.Result)
	}
}

// TestBreakdownAttributesRecovery checks an injected machine crash surfaces
// in the attribution. The crash lands near the end of the run so the
// killed tail tasks re-execute on the critical path: the walk must
// attribute their re-run spans (and any marker-bearing gaps) to recovery.
func TestBreakdownAttributesRecovery(t *testing.T) {
	clean := obs.New()
	cleanRes := runQ9(t, 5, clean, "")
	rec := obs.New()
	res := runQ9(t, 5, rec, failMachineLate)
	found := false
	for _, e := range rec.Events() {
		if e.Kind == obs.EvTaskFail || e.Kind == obs.EvOutputLost {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("machine crash on a saturated cluster recorded no failure events")
	}
	bd := rec.Breakdowns()[0]
	cleanDur := cleanRes.SortedJobs()[0].Duration()
	faultDur := res.SortedJobs()[0].Duration()
	if faultDur <= cleanDur {
		t.Fatalf("machine crash did not slow the job (%.3fs vs clean %.3fs)", faultDur, cleanDur)
	}
	if bd.Recovery <= 0 {
		t.Fatalf("failure events present but recovery column is %.6fs (%+v)", bd.Recovery, bd)
	}
}

// TestChaosObsDeterminism runs a small chaos soak twice with fresh
// recorders: equal stream hashes, and the recorder must not change the
// auditor's trace hash either.
func TestChaosObsDeterminism(t *testing.T) {
	run := func(rec *obs.Recorder) *chaos.Result {
		opts := core.DefaultOptions()
		opts.Obs = rec
		return chaos.Run(chaos.Config{Seed: 4, Jobs: 5, Options: &opts})
	}
	r0, r1 := obs.New(), obs.New()
	c0, c1 := run(r0), run(r1)
	if h0, h1 := r0.StreamHash(), r1.StreamHash(); h0 != h1 {
		t.Fatalf("chaos obs streams differ: %016x != %016x", h0, h1)
	}
	if c0.TraceHash != c1.TraceHash {
		t.Fatalf("chaos trace hashes differ: %016x != %016x", c0.TraceHash, c1.TraceHash)
	}
	plain := chaos.Run(chaos.Config{Seed: 4, Jobs: 5})
	if plain.TraceHash != c0.TraceHash {
		t.Fatalf("recording changed the chaos trace hash: %016x != %016x", plain.TraceHash, c0.TraceHash)
	}
	faults := false
	for _, e := range r0.Events() {
		if e.Kind == obs.EvFault {
			faults = true
			break
		}
	}
	if !faults {
		t.Fatal("chaos soak recorded no fault events")
	}
}

// TestStatsSection pins the -stats section derived from the event
// stream: one counter per kind that occurred, names sorted, then the
// task.work_s histogram of phase sums with its overflow reported.
func TestStatsSection(t *testing.T) {
	rec := obs.New()
	rec.JobSubmitted("j", 1, 2, 1)
	rec.TaskStarted("j", "s", 0, 1, 0, 0, "fresh")
	rec.TaskStarted("j", "s", 1, 1, 0, 1, "fresh")
	rec.TaskFinished("j", "s", 0, 1, 0, 0.2, 1, 2, 0)   // 3.2 s
	rec.TaskFinished("j", "s", 1, 1, 1, 1, 100, 500, 5) // 606 s: overflow
	rec.JobCompleted("j")
	want := "counters:\n" +
		"  event.job_done                   1\n" +
		"  event.job_submit                 1\n" +
		"  event.task_finish                2\n" +
		"  event.task_start                 2\n" +
		"histograms:\n" +
		"  task.work_s: range=[0,600) total=2 under=0 over=1\n" +
		"    bins 5:1\n"
	if got := statsSection(t, rec); got != want {
		t.Fatalf("stats section mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// Every kind has its own name, and an event is counted under "event." plus
// that name — the pairing the per-kind name table has to keep.
func TestKindNamesAndCounters(t *testing.T) {
	seen := map[string]obs.Kind{}
	for k := obs.EvJobSubmit; k <= obs.EvReplicaServed; k++ {
		name := k.String()
		if name == "" || name == "invalid" {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if got := (obs.EvReplicaServed + 1).String(); got != "invalid" {
		t.Errorf("out-of-range kind named %q, want invalid", got)
	}
	rec := obs.New()
	rec.JobCompleted("j")
	rec.ReplicaServed("j", "s", 0, 1)
	section := statsSection(t, rec)
	for _, k := range []obs.Kind{obs.EvJobDone, obs.EvReplicaServed} {
		if line := fmt.Sprintf("  %-32s 1\n", "event."+k.String()); !strings.Contains(section, line) {
			t.Errorf("stats section lacks %q:\n%s", line, section)
		}
	}
}
