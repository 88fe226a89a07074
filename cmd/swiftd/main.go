// Command swiftd runs the Swift controller as a long-running service: it
// accepts streaming job submissions over the rpc plane, pushes every one
// through the global flow controller (admission control, backpressure,
// load shedding — see internal/flow), schedules admitted jobs on a
// simulated cluster, and runs each task for the price the simulator charges
// (core.Controller.Price, set when the controller admits the job) scaled
// to wall time by -timescale: one completion driver goroutine holds every
// running task on a deadline heap and feeds the ones that fall due back in
// batches.
// SIGINT/SIGTERM or the flow.drain endpoint start a graceful drain: new
// submissions shed, queued work re-admits, and the process exits 0 once
// nothing is in flight.
//
// Submit jobs with `swiftsim -submit <addr>` (see README).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/flow"
	"swift/internal/prof"
	"swift/internal/rpc"
	"swift/internal/sched"
	"swift/internal/sim"
	"swift/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7411", "listen address (use :0 for an ephemeral port)")
		addrFile  = flag.String("addrfile", "", "write the bound address to this file once listening")
		machines  = flag.Int("machines", 8, "simulated machines")
		execs     = flag.Int("executors", 4, "executors per machine")
		timescale = flag.Float64("timescale", 100, "virtual task seconds per wall second")
		budget    = flag.Int("budget", 0, "max in-flight tasks (0 = 4x executors)")
		maxQueue  = flag.Int("maxqueue", 64, "admission wait-queue bound")
		rate      = flag.Float64("rate", 0, "token-bucket admission rate, jobs/sec (0 = ungoverned)")
		burst     = flag.Int("burst", 0, "token-bucket capacity (0 = derive from rate)")
		tbudgets  = flag.String("tenantbudget", "", `per-tenant in-flight task budgets, "name=N,name=N" (unlisted tenants unbounded)`)
		policy    = flag.String("policy", "fifo", `scheduling policy: "fifo" or "fair" (equal-weight fair share with borrowing)`)
		drainWait = flag.Duration("drainwait", 120*time.Second, "max time to wait for a clean drain")
		verbose   = flag.Bool("v", false, "log every admission decision")
	)
	startProfile := prof.Flags()
	flag.Parse()
	stopProfile := startProfile()
	code := run(*addr, *addrFile, *machines, *execs, *timescale, *budget, *maxQueue, *rate, *burst, *tbudgets, *policy, *drainWait, *verbose)
	stopProfile() // run returns once the drain is over
	os.Exit(code)
}

// parseTenantBudgets parses the -tenantbudget flag: comma-separated
// name=N pairs.
func parseTenantBudgets(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad tenant budget %q (want name=N)", pair)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad tenant budget %q: count must be a positive integer", pair)
		}
		out[name] = n
	}
	return out, nil
}

// maxBatch bounds how many due completions the driver feeds the service
// under one hold of its lock, so a submit waits behind at most this many.
const maxBatch = 64

// tickEvery is how long the driver lets the service go without an event:
// a tick refills the token bucket and pumps the wait queue even when no
// task completes.
const tickEvery = 10 * sim.Millisecond

type daemon struct {
	svc       *flow.Service
	start     time.Time
	timescale float64
	verbose   bool

	// mu guards the deadline heap. It is a leaf lock: the service runs the
	// sink after releasing its own mutex, and the driver releases mu before
	// it calls into the service, so the two are never held together.
	mu  sync.Mutex
	due flow.DeadlineHeap // running tasks by the wall time they finish at
	// wake tells the driver that the earliest deadline moved up while it
	// may be asleep on a later one. One pending signal is enough.
	wake chan struct{}

	drainOnce sync.Once
	drainReq  chan struct{}
}

func newDaemon(cl *cluster.Cluster, copts core.Options, fcfg flow.Config, timescale float64, verbose bool) *daemon {
	d := &daemon{
		start:     time.Now(),
		timescale: timescale,
		verbose:   verbose,
		wake:      make(chan struct{}, 1),
		drainReq:  make(chan struct{}),
	}
	d.svc = flow.NewService(cl, copts, fcfg, d.now, d.onActions)
	return d
}

// now is the injected service clock: monotonic wall micros since start.
func (d *daemon) now() sim.Time { return sim.Time(time.Since(d.start).Microseconds()) }

// onActions is the service's action sink: every started task goes on the
// deadline heap for the driver to complete once its price has passed at
// -timescale, and at least 200µs. Aborts remove nothing from it: the
// controller ignores a stale completion.
func (d *daemon) onActions(_ sim.Time, acts []core.Action, secs []float64) {
	var report []string // job-level log lines, printed once mu is released
	now := d.now()      // tasks start now, not when the event that started them was stamped
	d.mu.Lock()
	before, pending := d.due.Next()
	for i, act := range acts {
		switch act.Kind {
		case core.ActStartTask:
			d.due.Push(now+max(sim.FromSeconds(secs[i]/d.timescale), 200*sim.Microsecond), flow.CompletionOf(&act))
		case core.ActJobCompleted:
			if d.verbose {
				report = append(report, fmt.Sprintf("swiftd: job %s completed", act.Task.Job))
			}
		case core.ActJobFailed:
			report = append(report, fmt.Sprintf("swiftd: job %s failed: %s", act.Task.Job, act.Detail.Reason))
		case core.ActAbortTask:
			// Nothing to cancel: the stale attempt's completion is ignored.
		case core.ActResend, core.ActShuffleDegraded, core.ActReplicate:
			// Data-plane directives: transfers and replica copies are in
			// the price, as in the simulator.
		case core.ActJobRestarted, core.ActMachineHealthy, core.ActMachineReadOnly:
			// No machine faults or whole-job restarts in service mode.
		}
	}
	after, running := d.due.Next()
	d.mu.Unlock()
	if running && (!pending || after < before) {
		select {
		case d.wake <- struct{}{}:
		default: // a signal is already pending
		}
	}
	for _, line := range report {
		fmt.Println(line)
	}
}

// drive is the completion driver, the daemon's one clock: it sleeps on a
// single timer until the earliest running task is due (or a tick is), pops
// everything that is due — maxBatch at a time — and feeds each batch to
// the service in one call. One goroutine instead of a timer callback per
// task means a burst's completions reach the service mutex as one
// contender, not thousands, and the submitting connection gets its turn
// between batches. It returns when stop is closed.
func (d *daemon) drive(stop <-chan struct{}) {
	var batch [maxBatch]flow.Completion
	timer := time.NewTimer(0)
	defer timer.Stop()
	nextTick := d.now() + tickEvery
	for {
		now := d.now()
		d.mu.Lock()
		n := d.due.PopDue(now, batch[:])
		next, pending := d.due.Next()
		d.mu.Unlock()
		if n > 0 {
			d.svc.TasksFinished(batch[:n]) // pumps the wait queue like a tick
			nextTick = now + tickEvery
			continue
		}
		if now >= nextTick {
			d.svc.Tick()
			nextTick = now + tickEvery
			continue
		}
		wakeAt := nextTick
		if pending && next < wakeAt {
			wakeAt = next
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(time.Duration(wakeAt-now) * time.Microsecond)
		select {
		case <-timer.C:
		case <-d.wake:
		case <-stop:
			return
		}
	}
}

// FlowSubmit implements rpc.FlowHandler: decode the trace-encoded job and
// push it through admission.
func (d *daemon) FlowSubmit(id string, payload []byte) (rpc.FlowSubmitReply, error) {
	tr, err := trace.Read(bytes.NewReader(payload))
	if err != nil {
		return rpc.FlowSubmitReply{}, fmt.Errorf("swiftd: decode submission %q: %w", id, err)
	}
	if len(tr.Jobs) != 1 {
		return rpc.FlowSubmitReply{}, fmt.Errorf("swiftd: submission %q carries %d jobs, want exactly 1", id, len(tr.Jobs))
	}
	job := tr.Jobs[0].Job
	var out flow.Outcome
	if job.ID != id {
		// The job is admitted, logged and cancelled under its own id: a
		// frame naming another could never be cancelled by its sender.
		err = fmt.Errorf("swiftd: submission %q carries job %q: the frame id must be the job's id", id, job.ID)
	} else {
		out, err = d.svc.Submit(job)
	}
	rep := rpc.FlowSubmitReply{
		Decision:         out.Decision.String(),
		Level:            out.Level.String(),
		QueuePos:         out.QueuePos,
		RetryAfterMicros: int64(out.RetryAfter),
	}
	if err != nil {
		rep.Reason = err.Error()
		// Shed/drain rejections carry their flow decision; any other error
		// (mismatched or duplicate id, scheduler rejection, isolated panic)
		// happened outside the admission state machine, and the zero
		// Outcome must not read as "admitted" on the wire.
		if !errors.Is(err, flow.ErrOverloaded) && !errors.Is(err, flow.ErrDraining) {
			rep.Decision = ""
		}
	}
	if d.verbose {
		fmt.Printf("swiftd: submit %s -> %s (%s) %s\n", job.ID, rep.Decision, rep.Level, rep.Reason)
	}
	return rep, nil
}

// FlowStatus implements rpc.FlowHandler.
func (d *daemon) FlowStatus() (rpc.FlowStatusReply, error) {
	st := d.svc.Status()
	var tenants []rpc.FlowTenantStatus
	for _, t := range st.Tenants {
		tenants = append(tenants, rpc.FlowTenantStatus{
			Tenant: t.Tenant, Admitted: t.Admitted, Queued: t.Queued, Shed: t.Shed,
			QueueLen: t.QueueLen, InFlight: t.InFlight, Budget: t.Budget,
		})
	}
	return rpc.FlowStatusReply{
		Tenants:        tenants,
		LiveJobs:       st.Snapshot.LiveJobs,
		PendingTasks:   st.Snapshot.PendingTasks,
		RunningTasks:   st.Snapshot.RunningTasks,
		DoneTasks:      st.Snapshot.DoneTasks,
		SchedQueueLen:  st.Snapshot.SchedQueueLen,
		FreeExecutors:  st.Snapshot.FreeExecutors,
		TotalExecutors: st.Snapshot.TotalExecutors,
		Admitted:       st.Flow.Admitted,
		Queued:         st.Flow.Queued,
		Shed:           st.Flow.Shed,
		Decisions:      st.Flow.Decisions,
		FlowQueueLen:   st.Flow.QueueLen,
		MaxQueueLen:    st.Flow.MaxQueue,
		Draining:       st.Flow.Draining,
		Level:          st.Level.String(),
		Panics:         st.Panics,
	}, nil
}

// FlowCancel implements rpc.FlowHandler.
func (d *daemon) FlowCancel(id string) (rpc.FlowCancelReply, error) {
	err := d.svc.Cancel(id)
	return rpc.FlowCancelReply{Cancelled: err == nil}, nil
}

// FlowDrain implements rpc.FlowHandler: starts the shutdown sequence.
func (d *daemon) FlowDrain() error {
	d.drainOnce.Do(func() { close(d.drainReq) })
	return nil
}

func run(addr, addrFile string, machines, execs int, timescale float64, budget, maxQueue int, rate float64, burst int, tbudgets, policy string, drainWait time.Duration, verbose bool) int {
	if !(timescale > 0) || math.IsInf(timescale, 1) {
		fmt.Fprintf(os.Stderr, "swiftd: -timescale %v: want a finite positive number\n", timescale)
		return 1
	}
	tenantBudgets, err := parseTenantBudgets(tbudgets)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swiftd: -tenantbudget: %v\n", err)
		return 1
	}
	copts := core.DefaultOptions()
	switch policy {
	case "", "fifo":
	case "fair":
		copts.Policy = sched.NewFairShare(sched.FairShareConfig{})
	default:
		fmt.Fprintf(os.Stderr, "swiftd: unknown -policy %q (want fifo or fair)\n", policy)
		return 1
	}
	cl := cluster.New(cluster.Config{Machines: machines, ExecutorsPerMachine: execs})
	d := newDaemon(cl, copts, flow.Config{
		MaxInFlightTasks: budget,
		MaxQueue:         maxQueue,
		Rate:             rate,
		Burst:            burst,
		TenantBudgets:    tenantBudgets,
	}, timescale, verbose)

	server := rpc.NewServer()
	rpc.ServeFlow(server, d)
	bound, err := server.Listen(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swiftd: listen %s: %v\n", addr, err)
		return 1
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "swiftd: write addrfile: %v\n", err)
			return 1
		}
	}
	fmt.Printf("swiftd: listening on %s (%d machines x %d executors, budget=%d queue=%d rate=%.1f/s timescale=%.0fx)\n",
		bound, machines, execs, budget, maxQueue, rate, timescale)

	stopDriver := make(chan struct{})
	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		d.drive(stopDriver)
	}()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sigc:
		fmt.Printf("swiftd: %v received, draining\n", s)
	case <-d.drainReq:
		fmt.Println("swiftd: drain requested, draining")
	}
	d.svc.Drain()
	code := 0
	select {
	case <-d.svc.Drained():
	case <-time.After(drainWait):
		fmt.Fprintln(os.Stderr, "swiftd: drain timed out")
		code = 1
	case s := <-sigc:
		fmt.Fprintf(os.Stderr, "swiftd: second %v, aborting drain\n", s)
		code = 1
	}
	close(stopDriver)
	<-driverDone
	st := d.svc.Status()
	fmt.Printf("swiftd: drained admitted=%d queued=%d shed=%d live=%d panics=%d\n",
		st.Flow.Admitted, st.Flow.Queued, st.Flow.Shed, st.Snapshot.LiveJobs, st.Panics)
	for _, msg := range d.svc.Invariants() {
		fmt.Fprintf(os.Stderr, "swiftd: invariant violated: %s\n", msg)
		code = 1
	}
	_ = server.Close()
	return code
}
