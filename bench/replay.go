package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"swift/internal/baseline"
	"swift/internal/cluster"
	"swift/internal/core"
	"swift/internal/dag"
	"swift/internal/graphlet"
	"swift/internal/obs"
	"swift/internal/sched"
	"swift/internal/shuffle"
	"swift/internal/sim"
	"swift/internal/simrun"
	"swift/internal/trace"
)

// poolSeed fixes the job population of every trace. Between generator
// seeds the total work of a 2,000-job trace varies by ±8 % (the 6 % heavy
// class decides it), which moved makespan and job latency by 7–10 % and
// wall time with them: more than the changes this benchmark is there to
// catch. So the population is drawn once, and --seed decides the rest: the
// submission order (permuteJobs) and the simulator's own random source,
// which draws each task's run time within ±5 % of the trace's value.
const poolSeed = 1

// replaySpec describes one trace-replay workload: a generated trace run
// through simrun on a simulated cluster under Swift's own configuration.
type replaySpec struct {
	spec    func(shrink int) trace.Spec
	cluster func(shrink int) cluster.Config
	fair    bool // three-tenant fair share instead of the FIFO default
	obs     bool // the traced pass also measures the obs recorder's cost
}

var fairTenants = []sched.QueueSpec{
	{Name: "a", Weight: 2},
	{Name: "b", Weight: 1},
	{Name: "c", Weight: 1, Quota: 600},
}

func (s *replaySpec) options() core.Options {
	o := baseline.Swift()
	if s.fair {
		o.Policy = sched.NewFairShare(sched.FairShareConfig{Queues: fairTenants})
	}
	return o
}

// permuteJobs shuffles which job arrives in which slot: every slot keeps
// its time and tenant, and the jobs of one tenant are shuffled among that
// tenant's slots. For a batch trace (one tenant, all at t=0) this is a
// shuffle of the submission order.
func permuteJobs(tr *trace.Trace, rng *rand.Rand) {
	byTenant := make(map[string][]int)
	var tenants []string
	for i, j := range tr.Jobs {
		if _, ok := byTenant[j.Job.Tenant]; !ok {
			tenants = append(tenants, j.Job.Tenant)
		}
		byTenant[j.Job.Tenant] = append(byTenant[j.Job.Tenant], i)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		slots := byTenant[t]
		rng.Shuffle(len(slots), func(a, b int) {
			tr.Jobs[slots[a]].Job, tr.Jobs[slots[b]].Job = tr.Jobs[slots[b]].Job, tr.Jobs[slots[a]].Job
		})
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// replayInstance is a generated trace ready to replay.
type replayInstance struct {
	spec  *replaySpec
	tr    *trace.Trace
	ccfg  cluster.Config
	seed  int64
	first *simrun.Results // the warm-up's results: every later replay must equal them
}

func (s *replaySpec) setup(seed int64, shrink int) (instance, error) {
	tr := trace.Generate(s.spec(shrink))
	// Fair share's cost is chaotic in the arrival order: shuffling even
	// blocks of four neighbouring arrivals moved wall time by ±15 %. There
	// the seed drives the simulator's random source only.
	if !s.fair {
		permuteJobs(tr, newRand(seed))
	}
	in := &replayInstance{spec: s, tr: tr, ccfg: s.cluster(shrink), seed: seed}
	res, _ := in.replay(in.spec.options(), nil)
	in.first = res
	return in, nil
}

func (in *replayInstance) close() error { return nil }

// replay runs the trace once, start to quiescence. hook, when set, is
// installed before the run (the traced pass uses it).
func (in *replayInstance) replay(opts core.Options, hook func(*simrun.Runner)) (*simrun.Results, *simrun.Runner) {
	r := simrun.New(simrun.Config{Cluster: in.ccfg, Options: opts, Seed: in.seed})
	for _, j := range in.tr.Jobs {
		r.SubmitAt(sim.FromSeconds(j.SubmitAt), j.Job)
	}
	if hook != nil {
		hook(r)
	}
	return r.Run(), r
}

func (in *replayInstance) iterate(rec *recorder) (iteration, error) {
	t0 := time.Now()
	res, r := in.replay(in.spec.options(), nil)
	it := iteration{wall: time.Since(t0).Seconds()}
	in.check(&it, res, r)
	return it, nil
}

// check counts jobs that did not complete, asks the controller for
// invariant violations, and requires the simulated outcome to repeat
// exactly: simulated time is a pure function of the trace and the seed.
func (in *replayInstance) check(it *iteration, res *simrun.Results, r *simrun.Runner) {
	it.attempted = len(in.tr.Jobs)
	durs := make([]float64, 0, len(res.Jobs))
	for _, j := range res.SortedJobs() {
		if !j.Completed || j.Failed {
			it.failed++
			continue
		}
		durs = append(durs, j.Duration()*1000)
	}
	if len(res.Jobs) != len(in.tr.Jobs) {
		it.failed++
		it.problems = append(it.problems, fmt.Sprintf("replay saw %d jobs, trace has %d", len(res.Jobs), len(in.tr.Jobs)))
	}
	if it.failed > 0 {
		it.problems = append(it.problems, fmt.Sprintf("%d job(s) not completed", it.failed))
	}
	for _, v := range r.Controller().CheckInvariants() {
		it.failed++
		it.problems = append(it.problems, "invariant: "+v)
	}
	if in.first != nil {
		if res.Makespan != in.first.Makespan || sum(res.JobDurations()) != sum(in.first.JobDurations()) {
			it.failed++
			it.problems = append(it.problems, fmt.Sprintf("simulated outcome changed between replays of one seed: makespan %v vs %v", res.Makespan, in.first.Makespan))
		}
	}
	it.latMS = map[string][]float64{"job": durs}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// timedPolicy wraps a sched.Policy, timing every call and passing the
// inner policy's answers through unchanged.
type timedPolicy struct {
	inner  sched.Policy
	rec    *recorder
	parent func() int // the span the calls happen under

	jobOrderUS  []float64
	items       int
	proportions int
	preempts    int
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) JobOrder(items []sched.Item, view sched.View) []sched.Grant {
	t0 := time.Now()
	g := p.inner.JobOrder(items, view)
	t1 := time.Now()
	p.rec.add("sched.joborder", "", p.parent(), t0, t1)
	p.jobOrderUS = append(p.jobOrderUS, float64(t1.Sub(t0))/1e3)
	p.items += len(items)
	return g
}

func (p *timedPolicy) Proportion(view sched.View) []sched.Share {
	t0 := time.Now()
	s := p.inner.Proportion(view)
	p.rec.add("sched.proportion", "", p.parent(), t0, time.Now())
	p.proportions++
	return s
}

func (p *timedPolicy) Preempt(items []sched.Item, gangs []sched.Gang, view sched.View) []sched.Victim {
	t0 := time.Now()
	v := p.inner.Preempt(items, gangs, view)
	p.rec.add("sched.preempt", "", p.parent(), t0, time.Now())
	p.preempts++
	return v
}

// wrapPolicy installs a timedPolicy when the options carry a non-default
// policy. The FIFO default must stay unwrapped: the controller recognises
// it by type and serves it on a path that never calls a policy.
func wrapPolicy(o *core.Options, rec *recorder, parent func() int) *timedPolicy {
	if o.Policy == nil {
		return nil
	}
	tp := &timedPolicy{inner: o.Policy, rec: rec, parent: parent}
	o.Policy = tp
	return tp
}

// traced makes the per-layer pass: an untraced reference replay, a replay
// with hooks and the policy wrapper, a controller-only replay of the same
// event sequence, and the probes that run each remaining layer in isolation
// on the trace's own jobs.
func (s *replaySpec) traced(seed int64, shrink int, rec *recorder) (map[string]float64, iteration, error) {
	v := make(map[string]float64)

	t0 := time.Now()
	trace.Generate(s.spec(shrink))
	v["trace.generate_ms"] = time.Since(t0).Seconds() * 1e3

	instI, err := s.setup(seed, shrink)
	if err != nil {
		return nil, iteration{}, err
	}
	in := instI.(*replayInstance)
	ref, err := in.iterate(nil)
	if err != nil {
		return nil, iteration{}, err
	}

	// The traced replay: one span per controller event (the interval
	// between two event-hook callbacks), policy calls as its children.
	calls := len(in.tr.Jobs) // the controller calls the replay will make
	for _, j := range in.first.Jobs {
		calls += len(j.Samples)
	}
	if s.fair {
		calls *= 3 // room for the policy calls under each event
	}
	rec.reserve(calls + calls/8)
	root := rec.begin("replay", s.id(), -1)
	cur := -1
	var pendingMax, queueMax int
	var heapPeak uint64
	heapSample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var hooks int
	opts := s.options()
	tp := wrapPolicy(&opts, rec, func() int { return cur })
	var before, after runtime.MemStats
	gcBefore := gcCPUSeconds()
	runtime.ReadMemStats(&before)
	tStart := time.Now()
	res, r := in.replay(opts, func(r *simrun.Runner) {
		eng, ctrl := r.Engine(), r.Controller()
		r.SetEventHook(func(sim.Time) {
			rec.end(cur)
			if p := eng.Pending(); p > pendingMax {
				pendingMax = p
			}
			if q := ctrl.QueueLen(); q > queueMax {
				queueMax = q
			}
			if hooks++; hooks%4096 == 0 {
				metrics.Read(heapSample)
				if h := heapSample[0].Value.Uint64(); h > heapPeak {
					heapPeak = h
				}
			}
			cur = rec.begin("simrun.event", s.id(), root)
		})
		cur = rec.begin("simrun.event", s.id(), root)
	})
	tracedWall := time.Since(tStart).Seconds()
	rec.end(root)
	runtime.ReadMemStats(&after)
	gcAfter := gcCPUSeconds()
	it := iteration{wall: tracedWall}
	in.check(&it, res, r)

	events := float64(r.Engine().Steps())
	var eventUS []float64
	for _, sp := range rec.spans {
		if sp.name == "simrun.event" && sp.end >= 0 {
			eventUS = append(eventUS, float64(sp.end-sp.start)/1e3)
		}
	}
	v["bench.trace_overhead_frac"] = tracedWall/ref.wall - 1
	v["sim.events"] = events
	v["sim.events_per_s"] = events / ref.wall
	v["sim.pending_max"] = float64(pendingMax)
	v["core.sched_queue_max"] = float64(queueMax)
	v["simrun.makespan_s"] = res.Makespan.Seconds()
	v["simrun.event_us_p50"] = median(eventUS)
	v["simrun.event_us_p99"] = percentile(eventUS, 99)
	v["simrun.event_us_max"] = percentile(eventUS, 100)
	v["simrun.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	v["simrun.num_gc"] = float64(after.NumGC - before.NumGC)
	v["simrun.gc_cpu_frac"] = (gcAfter.gc - gcBefore.gc) / (gcAfter.busy - gcBefore.busy)
	v["simrun.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
	v["sched.reclaims"] = float64(r.Controller().ReclaimedGangs())
	if tp != nil {
		v["sched.joborder_calls"] = float64(len(tp.jobOrderUS))
		v["sched.joborder_us_p50"] = median(tp.jobOrderUS)
		v["sched.joborder_us_p99"] = percentile(tp.jobOrderUS, 99)
		if n := len(tp.jobOrderUS); n > 0 {
			v["sched.items_per_call"] = float64(tp.items) / float64(n)
		}
		v["sched.proportion_calls"] = float64(tp.proportions)
		v["sched.preempt_calls"] = float64(tp.preempts)
		tot := totalTimes(rec.spans)
		v["sched.busy_frac"] = (tot["sched.joborder"] + tot["sched.proportion"] + tot["sched.preempt"]).Seconds() / ref.wall
	}

	// Layers in isolation.
	coreS := s.coreOnly(in, res, rec, v, &it)
	v["core.share_of_wall"] = coreS / ref.wall
	simS := probeSim(pendingMax, int(events), v)
	v["sim.share_of_wall"] = simS / ref.wall
	v["simrun.self_frac"] = 1 - v["core.share_of_wall"] - v["sim.share_of_wall"] - v["sched.busy_frac"]
	probeCluster(in.tr, in.ccfg, v)
	probeGraphlet(in.tr, v)
	probeShuffleCost(in.tr, in.ccfg, v)
	if err := probeTraceCodec(in.tr, v); err != nil {
		return nil, iteration{}, err
	}
	if s.obs {
		orec := obs.New()
		oo := s.options()
		oo.Obs = orec
		t := time.Now()
		in.replay(oo, nil)
		v["obs.on_overhead_frac"] = time.Since(t).Seconds()/ref.wall - 1
		v["obs.events"] = float64(len(orec.Events()))
	}
	return v, it, nil
}

func (s *replaySpec) id() string {
	if s.fair {
		return "replay/fair"
	}
	return "replay/fifo"
}

// coreEvent is one call the simulator made into the controller.
type coreEvent struct {
	at      sim.Time
	job     *dag.Job // set for a submission
	ref     core.TaskRef
	attempt int
}

// coreOnly replays the controller alone: the calls simrun made into it
// (SubmitJob at each arrival, TaskFinished at each simulated completion),
// in simulated-time order, from a driver that does nothing else. Each call
// is a span; policy calls are its children, so core's self time excludes
// sched. It returns core's self seconds.
func (s *replaySpec) coreOnly(in *replayInstance, res *simrun.Results, rec *recorder, v map[string]float64, it *iteration) float64 {
	var evs []coreEvent
	for _, j := range in.tr.Jobs {
		evs = append(evs, coreEvent{at: sim.FromSeconds(j.SubmitAt), job: j.Job})
	}
	for _, j := range in.tr.Jobs {
		for _, ts := range res.Jobs[j.Job.ID].Samples {
			evs = append(evs, coreEvent{at: ts.Finish, ref: ts.Ref, attempt: ts.Attempt})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })

	firstSpan := len(rec.spans)
	rec.reserve(4 * len(evs))
	cur := -1
	opts := s.options()
	tp := wrapPolicy(&opts, rec, func() int { return cur })
	if tp != nil {
		tp.jobOrderUS = make([]float64, 0, len(evs))
	}
	ctrl := core.NewController(cluster.New(in.ccfg), opts)
	var actions, skipped int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range evs {
		e := &evs[i]
		if e.job != nil {
			cur = rec.begin("core.submit", e.job.ID, -1)
			if err := ctrl.SubmitJob(e.job); err != nil {
				skipped++
			}
		} else {
			if _, attempt, ok := ctrl.RunningTask(e.ref); !ok || attempt != e.attempt {
				skipped++ // the controller-only run diverged from the simulated one
				continue
			}
			cur = rec.begin("core.finish", e.ref.Job, -1)
			ctrl.TaskFinished(e.ref, e.attempt)
		}
		actions += len(ctrl.Drain())
		rec.end(cur)
	}
	runtime.ReadMemStats(&after)
	if skipped > 0 || ctrl.Snapshot().LiveJobs != 0 {
		it.failed++
		it.problems = append(it.problems, fmt.Sprintf("controller-only replay: %d call(s) skipped, %d job(s) left live", skipped, ctrl.Snapshot().LiveJobs))
	}
	for _, msg := range ctrl.CheckInvariants() {
		it.failed++
		it.problems = append(it.problems, "controller-only replay invariant: "+msg)
	}

	// The driver is single-threaded, so a call's self time is its span
	// minus the policy calls made under it.
	spans := rec.spans[firstSpan:]
	children := make([]time.Duration, len(spans))
	for _, sp := range spans {
		if sp.parent >= firstSpan {
			children[sp.parent-firstSpan] += sp.end - sp.start
		}
	}
	var submitUS, finishUS []float64
	var coreSelf float64
	for i, sp := range spans {
		self := sp.end - sp.start - children[i]
		switch sp.name {
		case "core.submit":
			submitUS = append(submitUS, float64(self)/1e3)
		case "core.finish":
			finishUS = append(finishUS, float64(self)/1e3)
		default:
			continue
		}
		coreSelf += self.Seconds()
	}
	n := float64(len(evs))
	v["core.submit_us_p50"] = median(submitUS)
	v["core.submit_us_p99"] = percentile(submitUS, 99)
	v["core.finish_us_p50"] = median(finishUS)
	v["core.finish_us_p99"] = percentile(finishUS, 99)
	v["core.ns_per_event"] = coreSelf * 1e9 / n
	v["core.actions_per_event"] = float64(actions) / n
	v["core.alloc_bytes_per_event"] = float64(after.TotalAlloc-before.TotalAlloc) / n
	return coreSelf
}

// probeSim times the event heap alone: no-op events at the replay's peak
// queue depth, each executed event scheduling one more. It returns the
// seconds the replay's event count would cost.
func probeSim(depth, events int, v map[string]float64) float64 {
	if depth < 1 {
		depth = 1
	}
	eng := sim.NewEngine(1)
	left := events
	var fn func()
	fn = func() {
		if left > 0 {
			left--
			eng.After(sim.Duration(1+eng.Rand().Intn(depth)), fn)
		}
	}
	for i := 0; i < depth; i++ {
		eng.At(sim.Time(i), func() {})
	}
	for i := 0; i < depth; i++ {
		eng.At(sim.Time(i), fn)
	}
	t0 := time.Now()
	eng.Run()
	perEvent := time.Since(t0).Seconds() / float64(eng.Steps())
	v["sim.push_pop_ns"] = perEvent * 1e9
	return perEvent * float64(events)
}

// probeCluster times cluster.New and Allocate/Release cycles with the
// trace's stage sizes at the workload's cluster size.
func probeCluster(tr *trace.Trace, ccfg cluster.Config, v map[string]float64) {
	var news []float64
	var cl *cluster.Cluster
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		cl = cluster.New(ccfg)
		news = append(news, time.Since(t0).Seconds()*1e3)
	}
	v["cluster.new_ms"] = median(news)

	var held [][]cluster.ExecutorID
	var execs int
	t0 := time.Now()
	for _, j := range tr.Jobs {
		for _, st := range j.Job.Stages() {
			for cl.FreeExecutors() < st.Tasks && len(held) > 0 {
				cl.Release(held[0])
				held = held[1:]
			}
			got := cl.Allocate(st.Tasks, nil)
			execs += len(got)
			held = append(held, got)
		}
	}
	for _, h := range held {
		cl.Release(h)
	}
	if execs > 0 {
		v["cluster.alloc_release_ns_per_exec"] = float64(time.Since(t0).Nanoseconds()) / float64(execs)
	}
}

// probeGraphlet partitions every trace job the way admission does.
func probeGraphlet(tr *trace.Trace, v map[string]float64) {
	var graphlets int
	t0 := time.Now()
	for _, j := range tr.Jobs {
		gs, err := graphlet.Partition(j.Job)
		if err != nil {
			continue
		}
		if _, err := graphlet.SubmissionOrder(gs); err != nil {
			continue
		}
		graphlets += len(gs)
	}
	n := float64(len(tr.Jobs))
	v["graphlet.partition_us_per_job"] = float64(time.Since(t0).Microseconds()) / n
	v["graphlet.per_job"] = float64(graphlets) / n
}

// probeShuffleCost selects a mode and prices every trace edge the way
// simrun does after admission.
func probeShuffleCost(tr *trace.Trace, ccfg cluster.Config, v map[string]float64) {
	model := ccfg.Model
	if model == nil {
		model = cluster.DefaultModel()
	}
	th := shuffle.DefaultThresholds()
	var edges int
	var byMode [4]int
	var sink float64
	t0 := time.Now()
	for _, j := range tr.Jobs {
		for _, e := range j.Job.Edges() {
			m, n := j.Job.Stage(e.From).Tasks, j.Job.Stage(e.To).Tasks
			mode := th.Select(j.Job.ShuffleEdgeSize(e))
			b := shuffle.Cost(mode, shuffle.CostInput{
				M: m, N: n,
				ProducerMachines: model.Spread(m, ccfg.Machines),
				ConsumerMachines: model.Spread(n, ccfg.Machines),
				Bytes:            e.Bytes,
				ClusterMachines:  ccfg.Machines,
				Model:            model,
			})
			sink += b.Total()
			byMode[mode]++
			edges++
		}
	}
	el := time.Since(t0)
	if edges == 0 || sink < 0 {
		return
	}
	v["shuffle.cost_ns_per_edge"] = float64(el.Nanoseconds()) / float64(edges)
	v["shuffle.edges"] = float64(edges)
	v["shuffle.direct_frac"] = float64(byMode[shuffle.Direct]) / float64(edges)
	v["shuffle.local_frac"] = float64(byMode[shuffle.Local]) / float64(edges)
	v["shuffle.remote_frac"] = float64(byMode[shuffle.Remote]) / float64(edges)
}

// probeTraceCodec times the JSON-lines trace codec on the workload's jobs.
func probeTraceCodec(tr *trace.Trace, v map[string]float64) error {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := tr.Write(&buf); err != nil {
		return err
	}
	n := float64(len(tr.Jobs))
	v["trace.write_us_per_job"] = float64(time.Since(t0).Microseconds()) / n
	v["trace.bytes_per_job"] = float64(buf.Len()) / n
	t0 = time.Now()
	back, err := trace.Read(&buf)
	if err != nil {
		return err
	}
	v["trace.read_us_per_job"] = float64(time.Since(t0).Microseconds()) / n
	if len(back.Jobs) != len(tr.Jobs) {
		return fmt.Errorf("trace codec: wrote %d jobs, read %d", len(tr.Jobs), len(back.Jobs))
	}
	return nil
}

type cpuSeconds struct{ gc, busy float64 }

// gcCPUSeconds reads the runtime's CPU accounting: seconds spent in the
// collector and seconds spent not idle.
func gcCPUSeconds() cpuSeconds {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuSeconds{gc: s[0].Value.Float64(), busy: s[1].Value.Float64() - s[2].Value.Float64()}
}
