// Package trace generates production-like job workloads calibrated to the
// characteristics the paper publishes in Fig. 8: mean job runtime ~30 s with
// more than 90% of jobs under 120 s, more than 80% of jobs with at most 80
// tasks and 4 stages, and failure times with ~50% within 30 s and ~90%
// within 200 s of job start. The generator is fully seeded, so a trace is a
// pure function of its Spec.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"swift/internal/dag"
)

// Spec configures a trace.
type Spec struct {
	Jobs int
	Seed int64
	// ArrivalWindow is the span in seconds over which jobs arrive
	// (uniformly); 0 means all jobs arrive at t=0.
	ArrivalWindow float64
	// Scale multiplies task counts, for experiments that need bigger
	// jobs than the production mix (Fig. 12's medium/large categories,
	// Fig. 16's 140k-executor runs). Default 1.
	Scale float64
	// RuntimeCap truncates the sampled per-job intended runtime (0 = no
	// cap). The strong-scaling experiment caps the tail so a single
	// straggler job's critical path does not bound the makespan.
	RuntimeCap float64
	// Tenants switches the generator to a multi-tenant arrival process:
	// each entry draws its jobs from its own sub-RNG (seeded from Seed and
	// the tenant's position, so adding a tenant never perturbs another's
	// stream) and tags them with its name. When empty the generator runs
	// the original single-stream path, byte-identical to earlier versions;
	// Jobs/ArrivalWindow are ignored when Tenants is set.
	Tenants []TenantSpec
}

// TenantSpec configures one tenant's workload within a multi-tenant trace.
type TenantSpec struct {
	Name string
	Jobs int
	// Rate is the tenant's mean Poisson arrival rate in jobs/second.
	// When 0 the tenant's jobs spread uniformly over ArrivalWindow
	// (which then must be > 0).
	Rate float64
	// ArrivalWindow bounds uniform arrivals when Rate is 0.
	ArrivalWindow float64
	// BurstAt/BurstDur/BurstFactor carve a burst window out of the
	// Poisson process: inside [BurstAt, BurstAt+BurstDur) the arrival
	// rate is multiplied by BurstFactor. Zero BurstFactor or BurstDur
	// means no burst.
	BurstAt     float64
	BurstDur    float64
	BurstFactor float64
}

// Job is one trace entry.
type Job struct {
	Job      *dag.Job
	SubmitAt float64 // seconds
}

// Trace is a generated workload.
type Trace struct {
	Spec Spec
	Jobs []Job
}

// Lognormal parameters fitted to Fig. 8 (see package comment):
// runtime: median 15 s, σ = 1.1  → mean ≈ 27 s, P(<120 s) ≈ 0.97
// tasks:   median 25,   σ = 1.2  → P(≤80) ≈ 0.83
const (
	runtimeMedian = 15.0
	runtimeSigma  = 1.1
	tasksMedian   = 22.0
	tasksSigma    = 1.2
)

func lognormal(r *rand.Rand, median, sigma float64) float64 {
	return median * math.Exp(sigma*r.NormFloat64())
}

// stageCount samples the per-job stage count: 80%+ of jobs have ≤4 stages.
func stageCount(r *rand.Rand) int {
	x := r.Float64()
	switch {
	case x < 0.28:
		return 2
	case x < 0.55:
		return 3
	case x < 0.82:
		return 4
	case x < 0.92:
		return 5
	case x < 0.97:
		return 6
	default:
		return 7 + r.Intn(4)
	}
}

// Generate builds a trace from the spec.
func Generate(spec Spec) *Trace {
	if spec.Scale <= 0 {
		spec.Scale = 1
	}
	if len(spec.Tenants) > 0 {
		return generateTenants(spec)
	}
	if spec.Jobs <= 0 {
		panic("trace: job count must be positive")
	}
	r := rand.New(rand.NewSource(spec.Seed))
	t := &Trace{Spec: spec}
	for i := 0; i < spec.Jobs; i++ {
		job := synthJob(r, fmt.Sprintf("job-%04d", i), spec.Scale, spec.RuntimeCap)
		at := 0.0
		if spec.ArrivalWindow > 0 {
			at = r.Float64() * spec.ArrivalWindow
		}
		t.Jobs = append(t.Jobs, Job{Job: job, SubmitAt: at})
	}
	return t
}

// tenantSeed derives a sub-seed for the tenant at position i, decorrelated
// from the base seed and from other tenants by a golden-ratio multiplier
// (overflow wraps, which is fine for a seed).
func tenantSeed(base int64, i int) int64 {
	return base + int64(i+1)*-0x61C8864680B583EB // 0x9E3779B97F4A7C15 as int64
}

// generateTenants builds the multi-tenant trace: each tenant's jobs and
// arrival times come from that tenant's own derived-seed RNG, then the
// streams merge in arrival order (ties broken by job ID, so the merged
// order — and therefore FIFO submission order — is deterministic).
func generateTenants(spec Spec) *Trace {
	t := &Trace{Spec: spec}
	for ti, ts := range spec.Tenants {
		if ts.Jobs <= 0 {
			panic(fmt.Sprintf("trace: tenant %q job count must be positive", ts.Name))
		}
		if ts.Rate <= 0 && ts.ArrivalWindow <= 0 {
			panic(fmt.Sprintf("trace: tenant %q needs Rate or ArrivalWindow", ts.Name))
		}
		r := rand.New(rand.NewSource(tenantSeed(spec.Seed, ti)))
		at := 0.0
		for i := 0; i < ts.Jobs; i++ {
			job := synthJob(r, fmt.Sprintf("%s-%04d", ts.Name, i), spec.Scale, spec.RuntimeCap)
			job.Tenant = ts.Name
			if ts.Rate > 0 {
				// Inhomogeneous Poisson: exponential gap at the rate in
				// effect at the current time (burst windows multiply it).
				rate := ts.Rate
				if ts.BurstFactor > 1 && ts.BurstDur > 0 &&
					at >= ts.BurstAt && at < ts.BurstAt+ts.BurstDur {
					rate *= ts.BurstFactor
				}
				at += r.ExpFloat64() / rate
			} else {
				at = r.Float64() * ts.ArrivalWindow
			}
			t.Jobs = append(t.Jobs, Job{Job: job, SubmitAt: at})
		}
	}
	sort.SliceStable(t.Jobs, func(i, j int) bool {
		a, b := t.Jobs[i], t.Jobs[j]
		if a.SubmitAt != b.SubmitAt {
			return a.SubmitAt < b.SubmitAt
		}
		return a.Job.ID < b.Job.ID
	})
	return t
}

// synthJob builds one job: a chain (sometimes with a side input) of
// `stages` stages whose total intended runtime and task counts follow the
// Fig. 8 distributions. Roughly 60% of inter-stage edges carry global-sort
// operators and become barriers, matching the prevalence of order-by /
// group-by / join the paper cites (97 of 100 TPC-DS queries).
func synthJob(r *rand.Rand, id string, scale, runtimeCap float64) *dag.Job {
	stages := stageCount(r)
	// Job sizes are a mixture: the bulk follows the Fig. 8(b) body
	// (>80% at ≤80 tasks), plus a ~5% heavy class reaching the
	// ~2,000-task tail visible in the figure — the jobs whose whole-job
	// gang scheduling stalls JetScope in Fig. 10.
	var totalTasks int
	if r.Float64() < 0.06 {
		totalTasks = int(lognormal(r, 550, 0.8)*scale + 1)
	} else {
		totalTasks = int(lognormal(r, tasksMedian, tasksSigma)*scale + 1)
	}
	// Fig. 8(b)'s task-count axis tops out at 2,000 tasks; clamp the
	// tail accordingly (scaled experiments scale the clamp too).
	if max := int(2000 * scale); totalTasks > max {
		totalTasks = max
	}
	if totalTasks < stages {
		totalTasks = stages
	}
	runtime := lognormal(r, runtimeMedian, runtimeSigma)
	if runtime < 1 {
		runtime = 1
	}
	if runtimeCap > 0 && runtime > runtimeCap {
		runtime = runtimeCap
	}

	// Split tasks across stages with a front-heavy profile (scans are
	// the widest), and runtime across stages evenly-ish.
	weights := make([]float64, stages)
	sum := 0.0
	for i := range weights {
		w := 1.0 / float64(i+1)
		w *= 0.75 + 0.5*r.Float64()
		weights[i] = w
		sum += w
	}
	j := dag.NewJob(id)
	prev := ""
	perStageTime := runtime / float64(stages)
	for i := 0; i < stages; i++ {
		tasks := int(float64(totalTasks) * weights[i] / sum)
		if tasks < 1 {
			tasks = 1
		}
		name := fmt.Sprintf("S%d", i+1)
		barrier := i > 0 && r.Float64() < 0.6
		ops := []dag.Operator{dag.Op(dag.OpShuffleRead)}
		var scanBytes int64
		if i == 0 {
			ops = []dag.Operator{dag.Op(dag.OpTableScan)}
			scanBytes = int64(float64(tasks) * (20 + 100*r.Float64()) * float64(1<<20))
		}
		if barrier {
			ops = append(ops, dag.Op(dag.OpMergeSort))
		}
		if i == stages-1 {
			ops = append(ops, dag.Op(dag.OpAdhocSink))
		} else {
			ops = append(ops, dag.Op(dag.OpShuffleWrite))
		}
		st := &dag.Stage{
			Name: name, Tasks: tasks, Operators: ops, Idempotent: r.Float64() < 0.9,
			Cost: dag.Cost{
				ScanBytes:             scanBytes,
				ProcessSecondsPerTask: perStageTime * (0.6 + 0.8*r.Float64()),
			},
		}
		if err := j.AddStage(st); err != nil {
			panic("trace: " + err.Error())
		}
		if prev != "" {
			mode := dag.Pipeline
			if barrier {
				mode = dag.Barrier
			}
			bytes := int64(float64(tasks) * (5 + 40*r.Float64()) * float64(1<<20))
			if err := j.AddEdge(&dag.Edge{From: prev, To: name, Op: dag.OpShuffleRead, Mode: mode, Bytes: bytes}); err != nil {
				panic("trace: " + err.Error())
			}
		}
		prev = name
	}
	return j
}

// FailureTime samples a failure occurrence time relative to job start,
// matching Fig. 8(a)'s failed-job runtime curve (≈50% < 30 s, ≈90% < 200 s).
func FailureTime(r *rand.Rand) float64 {
	// Lognormal with median 30 s; P(<200 s) = Φ(ln(200/30)/σ) = 0.9
	// → σ = ln(6.67)/1.2816 ≈ 1.48.
	return lognormal(r, 30, 1.48)
}

// ShuffleCategoryJob builds a synthetic two-stage job whose single shuffle
// edge lands in the requested Fig. 12 size class: m×n producer/consumer
// tasks around 50×50 (small), 200×200 (medium) or 400×400+ (large).
func ShuffleCategoryJob(id string, m, n int, bytesPerMapTask int64, proc float64) *dag.Job {
	j := dag.NewJob(id)
	total := int64(m) * bytesPerMapTask
	stages := []*dag.Stage{
		{
			Name: "map", Tasks: m, Idempotent: true,
			Operators: []dag.Operator{dag.Op(dag.OpTableScan), dag.Op(dag.OpMergeSort), dag.Op(dag.OpShuffleWrite)},
			Cost:      dag.Cost{ScanBytes: total, ProcessSecondsPerTask: proc},
		},
		{
			Name: "reduce", Tasks: n, Idempotent: true,
			Operators: []dag.Operator{dag.Op(dag.OpShuffleRead), dag.Op(dag.OpAdhocSink)},
			Cost:      dag.Cost{ProcessSecondsPerTask: proc},
		},
	}
	for _, s := range stages {
		if err := j.AddStage(s); err != nil {
			panic("trace: " + err.Error())
		}
	}
	if err := j.AddEdge(&dag.Edge{From: "map", To: "reduce", Op: dag.OpShuffleRead, Bytes: total}); err != nil {
		panic("trace: " + err.Error())
	}
	j.Classify()
	return j
}
