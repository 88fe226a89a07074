package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"swift/internal/cluster"
	"swift/internal/dag"
	"swift/internal/sched"
)

// FuzzController decodes bytes into a small cluster, one to three small
// DAGs and a configuration, then into inputs legal where each is applied,
// and feeds every input to several controllers through the test harness.
// After every input the primary's CheckInvariants is empty, an application
// error has failed its job, every started task below a non-idempotent
// stage of its graphlet started after that stage's latest attempt (see
// startOrder), and each other arm has drained the primary's actions: a
// replay arm (a controller rebuilt from the input log at any prefix takes
// over with the primary's state and future); and with one tenant and no
// quota, an arm under the other policy of FIFO and fair share, until the
// first fault (see isFault). Once the inputs stop, readmitting every
// machine and finishing whatever runs must end every job within a bound,
// and every job that failed must have said why (liveness).

// chooser makes the scenario's decisions: pick returns a value in [0, n)
// and more reports whether another input follows.
type chooser interface {
	pick(n int) int
	more() bool
}

// byteChooser reads decisions from fuzz bytes, one byte per decision with
// more than one outcome; past the end every decision is 0.
type byteChooser []byte

func (b *byteChooser) pick(n int) int {
	if n <= 1 || len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

func (b *byteChooser) more() bool { return len(*b) > 0 }

// scenario is the cluster, the jobs and the configuration, decoded before
// the first input.
type scenario struct {
	machines, execs int
	jobs            []*dag.Job
	fair            bool // sched.FairShare, else sched.FIFO
	quota           int  // fair share: the first tenant's quota (0: none)
	tenants         int  // ≤ 1: every job in the default tenant
	replicas        int
	recovery        RecoveryPolicy
	gang            bool // WholeJobPartition, else Swift's graphlets
}

// decodeScenario reads: ≤ 3 machines × ≤ 2 executors; the policy; the
// replication factor 1 or 3; the recovery policy; the partition; one or
// two tenants; a quota under fair share; and one to three jobs.
func decodeScenario(ch chooser) scenario {
	sc := scenario{machines: 1 + ch.pick(3), execs: 1 + ch.pick(2)}
	sc.fair = ch.pick(2) == 1
	sc.replicas = 1 + 2*ch.pick(2)
	sc.recovery = RecoveryPolicy(ch.pick(2))
	sc.gang = ch.pick(2) == 1
	sc.tenants = 1 + ch.pick(2)
	if sc.fair {
		sc.quota = 2 * ch.pick(2)
	}
	for j := range 1 + ch.pick(3) {
		sc.jobs = append(sc.jobs, decodeJob(ch, fmt.Sprintf("j%d", j), sc.tenants))
	}
	return sc
}

// decodeJob reads a two- or three-stage chain of one to three tasks a
// stage, each stage idempotent or not, each edge pipeline or barrier, and
// for three stages an optional A → C edge.
func decodeJob(ch chooser, id string, tenants int) *dag.Job {
	names := []string{"A", "B", "C"}[:2+ch.pick(2)]
	b := dag.NewBuilder(id)
	for _, name := range names {
		b.StageOpt(&dag.Stage{Name: name, Tasks: 1 + ch.pick(3), Idempotent: ch.pick(2) == 0})
	}
	edges := [2]func(from, to string, bytes int64) *dag.Builder{b.Pipeline, b.Barrier}
	for i := 1; i < len(names); i++ {
		edges[ch.pick(2)](names[i-1], names[i], 1<<20)
	}
	if len(names) == 3 {
		if mode := ch.pick(3); mode > 0 {
			edges[mode-1]("A", "C", 1<<20)
		}
	}
	j := b.MustBuild()
	if tenants > 1 {
		j.Tenant = fmt.Sprintf("t%d", ch.pick(tenants))
	}
	return j
}

func (sc scenario) options(fair bool) Options {
	opts := DefaultOptions()
	opts.ShuffleReplicas = sc.replicas
	opts.Recovery = sc.recovery
	if sc.gang {
		opts.Partition = WholeJobPartition
	}
	if fair {
		var cfg sched.FairShareConfig
		if sc.quota > 0 {
			cfg.Queues = []sched.QueueSpec{{Name: TenantName(sc.jobs[0]), Quota: sc.quota}}
		}
		opts.Policy = sched.NewFairShare(cfg)
	}
	return opts
}

// inputKind names the ten mutating Controller methods.
type inputKind int

const (
	inSubmit inputKind = iota
	inFinish
	inFail
	inOutputLost
	inMachineFailed
	inMachineUnhealthy
	inMachineRecovered
	inCacheWorkerLost
	inExecutorRestarted
	inCancel
	numInputKinds
)

var inputNames = [numInputKinds]string{"SubmitJob", "TaskFinished", "TaskFailed", "TaskOutputLost",
	"MachineFailed", "MachineUnhealthy", "MachineRecovered", "CacheWorkerLost", "ExecutorRestarted", "CancelJob"}

// input is one decoded controller input. Its argument is a task (with a
// failure kind for TaskFailed, only a job for CancelJob) or n: SubmitJob's
// index into the scenario's jobs, a machine, or an executor.
type input struct {
	kind inputKind
	task TaskRef
	fail FailureKind
	n    int
}

func (in input) String() string {
	switch {
	case in.kind == inFail:
		return fmt.Sprintf("TaskFailed(%s, %v)", in.task, in.fail)
	case in.task != TaskRef{}:
		return fmt.Sprintf("%s(%s)", inputNames[in.kind], in.task)
	}
	return fmt.Sprintf("%s(%d)", inputNames[in.kind], in.n)
}

// isFault reports whether an input injects a fault. Single-tenant fair
// share equals FIFO only until one does: a fair-share plan skips, and a
// dry pool then keeps, a queue entry with nothing pending that FIFO's nil
// plan drops as it passes, so requeue leaves a re-pended graphlet ahead of
// requests FIFO would serve first.
func (in input) isFault() bool {
	switch in.kind {
	case inSubmit, inFinish, inMachineRecovered, inCancel:
		return false
	}
	return true
}

// sortedRunning returns the running tasks in (job, stage, index) order,
// and of those the ones that can finish: a task has read all its input
// only once every task of its producer stages is done.
func (h *harness) sortedRunning() (run, finishable []Action) {
	for _, a := range h.running {
		run = append(run, a)
	}
	slices.SortFunc(run, func(a, b Action) int {
		return cmp.Or(cmp.Compare(a.Task.Job, b.Task.Job), cmp.Compare(a.Task.Stage, b.Task.Stage), cmp.Compare(a.Task.Index, b.Task.Index))
	})
	for _, a := range run {
		m := h.c.jobs[a.Task.Job]
		if !slices.ContainsFunc(m.stages[a.Stage].in, func(from int) bool { return !m.stages[from].complete() }) {
			finishable = append(finishable, a)
		}
	}
	return run, finishable
}

// candidates lists, per kind, every input legal in h's state: the next
// unsubmitted job; a running task to fail, by a crash or an application
// error, or to finish once its input is complete; a done task of a live
// job to lose the output of; a machine not failed to crash, a healthy one
// to drain, a down one to readmit, one not failed to lose its Cache
// Worker; a running task's executor to restart; a live job to cancel.
func candidates(h *harness, sc scenario, submitted int) [numInputKinds][]input {
	var cs [numInputKinds][]input
	if submitted < len(sc.jobs) {
		cs[inSubmit] = []input{{kind: inSubmit, n: submitted}}
	}
	run, finishable := h.sortedRunning()
	for _, a := range finishable {
		cs[inFinish] = append(cs[inFinish], input{kind: inFinish, task: a.Task})
	}
	for _, a := range run {
		cs[inFail] = append(cs[inFail], input{kind: inFail, task: a.Task, fail: FailCrash},
			input{kind: inFail, task: a.Task, fail: FailAppError})
		cs[inExecutorRestarted] = append(cs[inExecutorRestarted], input{kind: inExecutorRestarted, n: int(a.Executor)})
	}
	for _, job := range h.c.LiveJobs() {
		cs[inCancel] = append(cs[inCancel], input{kind: inCancel, task: TaskRef{Job: job}})
		for _, ts := range h.c.Tasks(job) {
			if ts.State == TaskDone {
				cs[inOutputLost] = append(cs[inOutputLost], input{kind: inOutputLost, task: ts.Ref})
			}
		}
	}
	for id := range cluster.MachineID(sc.machines) {
		health := h.c.Cluster().Machine(id).Health
		up, healthy := health != cluster.Failed, health == cluster.Healthy
		legal := [numInputKinds]bool{inMachineFailed: up, inMachineUnhealthy: healthy, inMachineRecovered: !healthy, inCacheWorkerLost: up}
		for k, ok := range legal {
			if ok {
				cs[k] = append(cs[k], input{kind: inputKind(k), n: int(id)})
			}
		}
	}
	return cs
}

// nextInput picks a kind among those with a legal input, then the input.
func nextInput(ch chooser, cs [numInputKinds][]input) (input, bool) {
	var kinds []inputKind
	for k := range numInputKinds {
		if len(cs[k]) > 0 {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 {
		return input{}, false
	}
	k := kinds[ch.pick(len(kinds))]
	return cs[k][ch.pick(len(cs[k]))], true
}

// apply feeds one input to an arm and drains its actions.
func (h *harness) apply(in input, sc scenario) {
	h.t.Helper()
	switch in.kind {
	case inSubmit:
		h.submit(sc.jobs[in.n].Clone())
	case inFinish:
		h.finish(in.task)
	case inFail:
		h.fail(in.task, in.fail)
	case inOutputLost:
		h.c.TaskOutputLost(in.task)
	case inMachineFailed:
		h.crash(cluster.MachineID(in.n))
	case inMachineUnhealthy:
		h.c.MachineUnhealthy(cluster.MachineID(in.n))
	case inMachineRecovered:
		h.c.MachineRecovered(cluster.MachineID(in.n))
	case inCacheWorkerLost:
		h.c.CacheWorkerLost(cluster.MachineID(in.n))
	case inExecutorRestarted:
		h.restart(cluster.ExecutorID(in.n))
	case inCancel:
		if err := h.c.CancelJob(in.task.Job, "fuzz"); err != nil {
			h.t.Fatal(err)
		}
	}
	h.drain()
}

// arm is one controller of the differential run.
type arm struct {
	name       string
	h          *harness
	untilFault bool // dropped at the first fault input
}

// startOrder holds Fig. 6b's cascade: the re-run of a non-idempotent
// stage replaces rows its successors in the graphlet may have consumed,
// so every running or done task below it in the graphlet must have
// started after the stage's latest attempt. It returns the first task of
// a live job that did not, or "".
func startOrder(h *harness) string {
	last := make(map[TaskRef]int, len(h.starts))
	for k, a := range h.starts {
		last[a.Task] = k
	}
	for _, m := range h.c.order {
		for s, st := range m.stages {
			if st.spec.Idempotent {
				continue
			}
			latest := -1
			for i := range st.tasks {
				if k, ok := last[m.ref(s, i)]; ok {
					latest = max(latest, k)
				}
			}
			// Topological order: one forward sweep closes below over the
			// graphlet's edges.
			below := make([]bool, len(m.stages))
			below[s] = true
			for b := s; b < len(m.stages); b++ {
				if !below[b] {
					continue
				}
				for _, e := range m.stages[b].out {
					below[e.to] = below[e.to] || m.stages[e.to].graphlet == st.graphlet
				}
				for i, t := range m.stages[b].tasks {
					if b != s && t.status != TaskPending && last[m.ref(b, i)] < latest {
						return fmt.Sprintf("%s started before %s's latest attempt", m.ref(b, i), st.spec.Name)
					}
				}
			}
		}
	}
	return ""
}

// runController decodes inputs from ch and applies each to every arm,
// holding the oracles after each one, then checks liveness.
func runController(t *testing.T, sc scenario, ch chooser, depth int) {
	t.Helper()
	// The arms of one policy share its value: a policy holds no state.
	newArm := func(name string, opts Options) *arm {
		return &arm{name: name, h: newHarness(t, sc.machines, sc.execs, opts)}
	}
	opts := sc.options(sc.fair)
	primary := newArm("primary", opts)
	arms := []*arm{primary, newArm("replay", opts)}
	if sc.tenants <= 1 && sc.quota == 0 {
		other := newArm("fair share", sc.options(true))
		if sc.fair {
			other = newArm("FIFO", sc.options(false))
		}
		other.untilFault = true
		arms = append(arms, other)
	}

	var log []string
	fatal := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("inputs: %v\n%s", log, fmt.Sprintf(format, args...))
	}
	step := func(label string, fault bool, apply func(*harness)) {
		t.Helper()
		log = append(log, label)
		if fault {
			arms = slices.DeleteFunc(arms, func(a *arm) bool { return a.untilFault })
		}
		from := len(primary.h.events)
		for _, a := range arms {
			apply(a.h)
		}
		got := primary.h.events[from:]
		for _, a := range arms[1:] {
			if want := a.h.events[from:]; !reflect.DeepEqual(got, want) {
				fatal("%s drained %+v, the primary %+v", a.name, want, got)
			}
		}
		if v := primary.h.c.CheckInvariants(); len(v) > 0 {
			fatal("invariants after %s: %v", label, v)
		}
		if v := startOrder(primary.h); v != "" {
			fatal("start order after %s: %s", label, v)
		}
		for ref, a := range primary.h.running {
			if e, attempt, ok := primary.h.c.RunningTask(ref); !ok || e != a.Executor || attempt != int(a.Attempt) {
				fatal("harness runs %s attempt %d on %d; the controller says %d on %d (%v)", ref, a.Attempt, a.Executor, attempt, e, ok)
			}
		}
	}

	submitted := 0
	for len(log) < depth && ch.more() {
		in, ok := nextInput(ch, candidates(primary.h, sc, submitted))
		if !ok {
			break
		}
		if in.kind == inSubmit {
			submitted++
		}
		step(in.String(), in.isFault(), func(h *harness) { h.apply(in, sc) })
		if in.kind == inFail && in.fail == FailAppError && !primary.h.c.JobFailed(in.task.Job) {
			fatal("an application error in %s did not fail its job (§IV-C: no useless recovery)", in.task)
		}
	}

	// Liveness: the faults have stopped. Readmit every down machine, then
	// finish the first task that can finish until none runs. Without faults
	// a task re-runs only when the deadlock breaker or a fair-share reclaim
	// preempts it, so 8× the task count is a generous bound.
	step("readmit", false, (*harness).readmit)
	tasks := 0
	for _, j := range sc.jobs[:submitted] {
		tasks += j.NumTasks()
	}
	for finishes := 0; len(primary.h.running) > 0; finishes++ {
		run, finishable := primary.h.sortedRunning()
		if finishes > 8*tasks || len(finishable) == 0 {
			fatal("liveness: after %d finishes %v run and none can finish", finishes, run)
		}
		in := input{kind: inFinish, task: finishable[0].Task}
		step(in.String(), false, func(h *harness) { h.apply(in, sc) })
	}
	for _, j := range sc.jobs[:submitted] {
		switch {
		case primary.h.c.JobFailed(j.ID):
			if !slices.ContainsFunc(primary.h.events, func(a Action) bool {
				return a.Kind == ActJobFailed && a.Task.Job == j.ID && a.Detail.Reason != ""
			}) {
				fatal("liveness: %s failed without a reason", j.ID)
			}
		case !primary.h.c.JobDone(j.ID):
			fatal("liveness: nothing runs and %s has not ended: %+v", j.ID, primary.h.c.Tasks(j.ID))
		}
	}
}

// FuzzController's seed corpus, which tier-1 runs, is the scenario of the
// retired shadow failover test, every input kind in one sequence, and
// fixed random bytes.
func FuzzController(f *testing.F) {
	// 3×2, FIFO, graphlets, j0 = A:3 ⇒ B:2 (barrier), j1 = A:2 → B:1
	// (pipeline).
	config := []byte{2, 1, 0, 0, 0, 0, 0, 1, 0, 2, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0}
	for _, seed := range [][]byte{
		// Submit both, finish j0/A[0], crash j1/A[0], finish j0/A[1]; the
		// liveness phase drives the rest to completion.
		append(slices.Clip(config), 0, 0, 0, 0, 1, 4, 0, 0),
		// Then every input kind: drain machine 1 and readmit it, lose
		// machine 0's Cache Worker, finish j0/A[0] again and lose its
		// output, restart j1/B[0]'s executor, crash machine 2, cancel j1.
		append(slices.Clip(config), 0, 0, 0, 0, 1, 4, 4, 1, 5, 5, 0, 0, 0, 2, 5, 5, 2, 2, 7, 1),
	} {
		f.Add(seed)
	}
	r := rand.New(rand.NewSource(1))
	for range 24 {
		b := make([]byte, 8+r.Intn(56))
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ch := byteChooser(data)
		sc := decodeScenario(&ch)
		runController(t, sc, &ch, 64) // at most 64 inputs keep one execution cheap
	})
}

// odometer enumerates every sequence of decisions depth-first: a run
// replays the current prefix and takes the first outcome of each new
// decision, and next advances the deepest decision with an outcome left.
type odometer struct {
	choice, arity []int
	pos           int
}

func (o *odometer) pick(n int) int {
	if o.pos == len(o.choice) {
		o.choice, o.arity = append(o.choice, 0), append(o.arity, n)
	}
	o.pos++
	return o.choice[o.pos-1]
}

func (o *odometer) more() bool { return true }

func (o *odometer) next() bool {
	o.choice, o.arity, o.pos = o.choice[:o.pos], o.arity[:o.pos], 0
	for k := len(o.choice) - 1; k >= 0; k-- {
		if o.choice[k]+1 < o.arity[k] {
			o.choice[k]++
			return true
		}
		o.choice, o.arity = o.choice[:k], o.arity[:k]
	}
	return false
}

// TestControllerSmallScope holds the fuzzer's oracles on every input
// sequence of length smallScopeDepth — every order of every legal input,
// faults included — on two- and three-stage jobs over two one-executor
// machines, and on a whole-job gang that fits them and one that does not.
func TestControllerSmallScope(t *testing.T) {
	const smallScopeDepth = 4
	job := func(id, stages string, edges ...string) *dag.Job {
		b := dag.NewBuilder(id)
		for _, s := range strings.Fields(stages) { // "A2!": stage A, two tasks, not idempotent
			b.StageOpt(&dag.Stage{Name: s[:1], Tasks: int(s[1] - '0'), Idempotent: !strings.HasSuffix(s, "!")})
		}
		for _, e := range edges { // "A-B" pipelines, "A=B" is a barrier
			map[byte]func(from, to string, bytes int64) *dag.Builder{'-': b.Pipeline, '=': b.Barrier}[e[1]](e[:1], e[2:], 1<<20)
		}
		return b.MustBuild()
	}
	cases := map[string]scenario{
		"pipeline":             {jobs: []*dag.Job{job("j0", "A2! B1", "A-B")}},
		"barrier R=3":          {replicas: 3, jobs: []*dag.Job{job("j0", "A1 B2", "A=B")}},
		"three stages fair":    {fair: true, jobs: []*dag.Job{job("j0", "A1 B1! C1", "A-B", "B=C")}},
		"three stages restart": {recovery: JobRestart, jobs: []*dag.Job{job("j0", "A1! B1 C1", "A=B", "B-C", "A-C")}},
		"two jobs":             {jobs: []*dag.Job{job("j0", "A1 B1", "A=B"), job("j1", "A1! B1", "A-B")}},
		"gang":                 {gang: true, jobs: []*dag.Job{job("j0", "A1 B1", "A-B")}},
		"gang too large":       {gang: true, jobs: []*dag.Job{job("j0", "A2 B1", "A-B")}},
	}
	for name, sc := range cases {
		t.Run(name, func(t *testing.T) {
			sc.machines, sc.execs = 2, 1
			for o := new(odometer); ; {
				runController(t, sc, o, smallScopeDepth)
				if !o.next() {
					break
				}
			}
		})
	}
}
