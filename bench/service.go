package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/flow"
	"swift/internal/rpc"
	"swift/internal/sim"
	"swift/internal/trace"
)

const (
	burstJobs      = 3000
	burstMachines  = 100
	burstExecutors = 30
)

// buildDir is where the benchmark keeps what it builds and the files the
// daemon writes, relative to the module root.
const buildDir = ".bench_build"

// moduleRoot finds the directory holding go.mod, starting from the working
// directory (the module root under `go run ./bench`, bench/ under go test).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("go.mod not found above the working directory")
		}
		dir = parent
	}
}

// buildSwiftd compiles cmd/swiftd into the build directory.
func buildSwiftd() (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(root, buildDir, "swiftd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/swiftd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/swiftd: %w\n%s", err, out)
	}
	return bin, nil
}

// burstInstance is a fresh swiftd with one connection to it and the
// encoded jobs of one burst.
type burstInstance struct {
	cmd      *exec.Cmd
	log      bytes.Buffer
	fc       *rpc.FlowClient
	ids      []string
	payloads [][]byte
	used     bool
	status   rpc.FlowStatusReply // the daemon's counters once the burst has drained
}

var swiftdBin string // set by the workload's prepare

func burstPrepare() error {
	bin, err := buildSwiftd()
	swiftdBin = bin
	return err
}

// burstTrace is the burst's jobs: the swiftsim -submit shape, one
// trace-encoded job per submission.
func burstTrace(seed int64, shrink int) *trace.Trace {
	tr := trace.Generate(trace.Spec{Jobs: burstJobs / shrink, Seed: poolSeed, RuntimeCap: 120})
	permuteJobs(tr, newRand(seed))
	return tr
}

// encodeJob is one submission's payload: a one-job trace.
func encodeJob(j trace.Job) ([]byte, error) {
	var buf bytes.Buffer
	err := (&trace.Trace{Jobs: []trace.Job{j}}).Write(&buf)
	return buf.Bytes(), err
}

func burstSetup(seed int64, shrink int) (instance, error) {
	tr := burstTrace(seed, shrink)
	in := &burstInstance{}
	for _, j := range tr.Jobs {
		payload, err := encodeJob(j)
		if err != nil {
			return nil, err
		}
		in.ids = append(in.ids, j.Job.ID)
		in.payloads = append(in.payloads, payload)
	}

	addrFile := filepath.Join(filepath.Dir(swiftdBin), fmt.Sprintf("swiftd-%d.addr", os.Getpid()))
	_ = os.Remove(addrFile) // a stale file from an earlier round would be read as this daemon's address
	in.cmd = exec.Command(swiftdBin,
		"-addr", "127.0.0.1:0", "-addrfile", addrFile,
		"-machines", strconv.Itoa(burstMachines), "-executors", strconv.Itoa(burstExecutors),
		"-timescale", "100000", "-maxqueue", "100000", "-drainwait", "60s")
	in.cmd.Stdout, in.cmd.Stderr = &in.log, &in.log
	// The daemon must not outlive a benchmark that is killed.
	in.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := in.cmd.Start(); err != nil {
		return nil, err
	}
	var addr []byte
	for deadline := time.Now().Add(10 * time.Second); len(addr) == 0; time.Sleep(time.Millisecond) {
		addr, _ = os.ReadFile(addrFile) // absent until the daemon has bound
		if len(addr) == 0 && time.Now().After(deadline) {
			in.kill()
			return nil, fmt.Errorf("swiftd never wrote %s\n%s", addrFile, in.log.String())
		}
	}
	_ = os.Remove(addrFile) // already read; a leftover only clutters the build directory
	fc, err := rpc.DialFlow(string(addr), 5*time.Second)
	if err != nil {
		in.kill()
		return nil, err
	}
	in.fc = fc
	return in, nil
}

func (in *burstInstance) kill() {
	_ = in.cmd.Process.Kill() // already exited is fine
	_ = in.cmd.Wait()         // reaps; the kill is what the exit status says
}

// iterate submits every job back to back on the one connection, then polls
// the daemon until nothing is live or queued.
func (in *burstInstance) iterate(rec *recorder) (iteration, error) {
	if in.used {
		return iteration{}, errors.New("a swiftd instance takes one burst: job ids must be unique")
	}
	in.used = true
	it := iteration{attempted: len(in.ids)}
	rtts := make([]float64, 0, len(in.ids))
	rec.reserve(len(in.ids) + 1)
	root := rec.begin("burst", "burst", -1)
	var admitted, queued int
	t0 := time.Now()
	for i, id := range in.ids {
		ts := time.Now()
		rep, err := in.fc.Submit(id, in.payloads[i])
		te := time.Now()
		rec.add("rpc.submit", id, root, ts, te)
		rtts = append(rtts, float64(te.Sub(ts))/1e6)
		switch {
		case err != nil:
			it.failed++
			it.problems = append(it.problems, fmt.Sprintf("submit %s: %v", id, err))
		case rep.Decision == "admitted":
			admitted++
		case rep.Decision == "queued":
			queued++
		default:
			it.failed++
			it.problems = append(it.problems, fmt.Sprintf("submit %s: decision %q %s", id, rep.Decision, rep.Reason))
		}
		if len(it.problems) > 20 {
			return it, errors.New("too many failed submits:\n" + in.log.String())
		}
	}
	var st rpc.FlowStatusReply
	for {
		var err error
		if st, err = in.fc.Status(); err != nil {
			return it, fmt.Errorf("status: %w\n%s", err, in.log.String())
		}
		if st.LiveJobs == 0 && st.FlowQueueLen == 0 {
			break
		}
		if time.Since(t0) > 120*time.Second {
			return it, fmt.Errorf("swiftd still has %d live jobs after 120 s", st.LiveJobs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	it.wall = time.Since(t0).Seconds()
	rec.end(root)
	it.latMS = map[string][]float64{"submit": rtts}
	it.rssMB = peakRSSMB(strconv.Itoa(in.cmd.Process.Pid))
	if admitted+queued != len(in.ids) || st.Admitted != int64(len(in.ids)) || st.Shed != 0 || st.Panics != 0 {
		it.failed++
		it.problems = append(it.problems, fmt.Sprintf("client saw admitted=%d queued=%d of %d; server admitted=%d shed=%d panics=%d",
			admitted, queued, len(in.ids), st.Admitted, st.Shed, st.Panics))
	}
	in.status = st
	return it, nil
}

// close asks the daemon to drain and requires it to exit 0: swiftd checks
// its own service invariants on the way out.
func (in *burstInstance) close() error {
	// An idle daemon may exit before the drain reply is written, so the
	// call's error says nothing; the exit status does.
	_ = in.fc.Drain()
	_ = in.fc.Close() // the daemon is going away either way
	done := make(chan error, 1)
	go func() { done <- in.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("swiftd exit: %w\n%s", err, in.log.String())
		}
	case <-time.After(90 * time.Second):
		_ = in.cmd.Process.Kill() // Wait in the goroutine reaps it
		<-done
		return errors.New("swiftd did not exit within 90 s of drain")
	}
	return nil
}

// burstTraced makes the per-layer pass: an untraced reference burst, a
// burst with a span per submit, and the layers under a submit in isolation
// — rpc round trip, trace decoding, flow admission, graphlet partitioning
// and core.SubmitJob — whose sum the submit latency is compared with.
func burstTraced(seed int64, shrink int, rec *recorder) (map[string]float64, iteration, error) {
	v := make(map[string]float64)
	var st rpc.FlowStatusReply
	one := func(rec *recorder) (iteration, error) {
		instI, err := burstSetup(seed, shrink)
		if err != nil {
			return iteration{}, err
		}
		in := instI.(*burstInstance)
		it, err := in.iterate(rec)
		if err != nil {
			in.kill()
			return it, err
		}
		st = in.status
		if err := in.close(); err != nil {
			it.failed++
			it.problems = append(it.problems, err.Error())
		}
		return it, nil
	}
	ref, err := one(nil)
	if err != nil {
		return nil, iteration{}, err
	}
	it, err := one(rec)
	if err != nil {
		return nil, iteration{}, err
	}
	v["bench.trace_overhead_frac"] = it.wall/ref.wall - 1
	v["flow.admitted"] = float64(st.Admitted)
	v["flow.queued"] = float64(st.Queued)
	v["flow.shed"] = float64(st.Shed)
	v["flow.decisions"] = float64(st.Decisions)

	tr := burstTrace(seed, shrink)
	ccfg := cluster.Config{Machines: burstMachines, ExecutorsPerMachine: burstExecutors}
	probeGraphlet(tr, v)
	payload, err := probeSubmitCodec(tr, v)
	if err != nil {
		return nil, iteration{}, err
	}
	if err := probeRPC(payload, v); err != nil {
		return nil, iteration{}, err
	}
	probeFlow(tr, v)
	probeCoreSubmit(tr, ccfg, v)

	submitP50 := median(it.latMS["submit"]) * 1e3 // µs
	explained := v["rpc.echo_rtt_us_p50"] + v["trace.read_us_per_job"] + v["flow.offer_ns"]/1e3 + v["core.submit_us_p50"]
	v["flow.residual_frac"] = 1 - explained/submitP50
	return v, it, nil
}

// probeSubmitCodec times trace.Write and trace.Read one job at a time, the
// way a submission is encoded and swiftd decodes it, and returns the
// median-sized payload.
func probeSubmitCodec(tr *trace.Trace, v map[string]float64) ([]byte, error) {
	payloads := make([][]byte, 0, len(tr.Jobs))
	var bytesTotal int
	t0 := time.Now()
	for _, j := range tr.Jobs {
		payload, err := encodeJob(j)
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, payload)
		bytesTotal += len(payload)
	}
	n := float64(len(tr.Jobs))
	v["trace.write_us_per_job"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / n
	v["trace.bytes_per_job"] = float64(bytesTotal) / n
	t0 = time.Now()
	for _, p := range payloads {
		if _, err := trace.Read(bytes.NewReader(p)); err != nil {
			return nil, err
		}
	}
	v["trace.read_us_per_job"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / n
	sizes := make([]float64, len(payloads))
	for i, p := range payloads {
		sizes[i] = float64(len(p))
	}
	med := median(sizes)
	best := payloads[0]
	for _, p := range payloads {
		if d, b := float64(len(p))-med, float64(len(best))-med; d*d < b*b {
			best = p
		}
	}
	return best, nil
}

// probeRPC times the rpc plane alone: an in-process server whose handler
// returns the request body untouched, called with a submit chunk that
// carries the median job payload; and the gob codec on the same chunk.
func probeRPC(payload []byte, v map[string]float64) error {
	srv := rpc.NewServer()
	srv.Register("echo", func(body []byte) ([]byte, error) { return body, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := rpc.Dial(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	chunk := rpc.FlowSubmitChunk{ID: "probe", Data: payload}
	const calls = 2000
	rtts := make([]float64, 0, calls)
	for i := 0; i < calls+100; i++ {
		var back rpc.FlowSubmitChunk
		t0 := time.Now()
		if err := c.Call("echo", &chunk, &back); err != nil {
			return err
		}
		if i >= 100 { // the first calls warm the connection
			rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	v["rpc.echo_rtt_us_p50"] = median(rtts)
	v["rpc.echo_rtt_us_p99"] = percentile(rtts, 99)

	t0 := time.Now()
	for i := 0; i < calls; i++ {
		enc, err := rpc.Encode(&chunk)
		if err != nil {
			return err
		}
		var back rpc.FlowSubmitChunk
		if err := rpc.Decode(enc, &back); err != nil {
			return err
		}
	}
	v["rpc.gob_ns_per_kb"] = float64(time.Since(t0).Nanoseconds()) / calls / (float64(len(payload)) / 1024)
	return nil
}

// probeFlow times admission decisions alone: every job is offered against
// a snapshot that fills up as jobs are admitted, then the wait queue is
// popped against an empty cluster.
func probeFlow(tr *trace.Trace, v map[string]float64) {
	execs := burstMachines * burstExecutors
	fc := flow.NewController(flow.Config{MaxQueue: 100000}, execs)
	snap := core.StateSnapshot{TotalExecutors: execs, FreeExecutors: execs}
	var ops int
	t0 := time.Now()
	for _, j := range tr.Jobs {
		tasks := j.Job.NumTasks()
		out, err := fc.Offer(sim.Time(ops), snap, flow.Item{ID: j.Job.ID, Tasks: tasks})
		ops++
		if err == nil && out.Decision == flow.Admitted {
			snap.PendingTasks += tasks
		}
	}
	snap.PendingTasks = 0
	for {
		if _, ok := fc.PopAdmissible(sim.Time(ops), snap); !ok {
			break
		}
		ops++
	}
	v["flow.offer_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// probeCoreSubmit times core.SubmitJob for every job of the burst on a
// fresh controller: the first jobs fill the cluster, the rest queue, as in
// the burst itself.
func probeCoreSubmit(tr *trace.Trace, ccfg cluster.Config, v map[string]float64) {
	ctrl := core.NewController(cluster.New(ccfg), core.DefaultOptions())
	us := make([]float64, 0, len(tr.Jobs))
	var actions int
	for _, j := range tr.Jobs {
		t0 := time.Now()
		err := ctrl.SubmitJob(j.Job)
		actions += len(ctrl.Drain())
		if err == nil {
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	v["core.submit_us_p50"] = median(us)
	v["core.submit_us_p99"] = percentile(us, 99)
	v["core.actions_per_event"] = float64(actions) / float64(len(tr.Jobs))
}
