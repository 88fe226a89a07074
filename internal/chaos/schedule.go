// Package chaos is a deterministic chaos engine for the Swift controller:
// it generates seeded fault schedules (Poisson arrivals with bursts across
// every failure class of Section IV), injects them into a simulated
// cluster running a trace-generated workload, and audits every controller
// action and event against the scheduler's invariants. Same seed, same
// everything — a violating run replays bit for bit from its seed.
package chaos

import (
	"math/rand"
	"sort"

	"swift/internal/sim"
)

// FaultKind classifies one injected fault.
type FaultKind int

const (
	// KindMachineCrash kills a machine; it reboots after Profile.RebootDelay.
	KindMachineCrash FaultKind = iota
	// KindMachineUnhealthy drives the unhealthy→read-only transition; the
	// machine re-admits after Profile.RecoverDelay.
	KindMachineUnhealthy
	// KindExecutorRestart restarts one executor process (self-reported).
	KindExecutorRestart
	// KindTaskCrash kills one running task (error-reported).
	KindTaskCrash
	// KindTaskTimeout hangs one running task (heartbeat-detected).
	KindTaskTimeout
	// KindOutputLost destroys one completed task's buffered output.
	KindOutputLost
	// KindCacheWorkerCrash kills one machine's Cache Worker, losing every
	// output hosted there at once (the TaskOutputLost storm).
	KindCacheWorkerCrash
	// KindStraggler slows one running task down by Fault.Factor.
	KindStraggler
	// KindOverload is a thundering herd: Fault.Count extra job submissions
	// arrive at one tick, stressing the admission plane. It only applies to
	// soaks configured with a flow controller (Config.Flow).
	KindOverload

	numFaultKinds
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case KindMachineCrash:
		return "machine-crash"
	case KindMachineUnhealthy:
		return "machine-unhealthy"
	case KindExecutorRestart:
		return "executor-restart"
	case KindTaskCrash:
		return "task-crash"
	case KindTaskTimeout:
		return "task-timeout"
	case KindOutputLost:
		return "output-lost"
	case KindCacheWorkerCrash:
		return "cacheworker-crash"
	case KindStraggler:
		return "straggler"
	case KindOverload:
		return "overload"
	}
	return "unknown"
}

// Fault is one scheduled injection. Machine/Executor target machine-scoped
// kinds; task-scoped kinds (crash, timeout, output loss, straggler) pick a
// live victim at injection time, because the schedule cannot know future
// task placement.
type Fault struct {
	At       sim.Time
	Kind     FaultKind
	Machine  int
	Executor int
	// Factor is the straggler slowdown multiplier.
	Factor float64
	// AppErr surfaces a task crash as an application error (job-fatal,
	// Section IV-C) instead of an infrastructure failure.
	AppErr bool
	// Count is the overload burst size: how many extra submissions arrive
	// at this fault's tick.
	Count int
}

// Profile sets per-kind mean arrival rates (faults per minute of virtual
// time over the injection window) and the pairing delays that bring
// machines back.
type Profile struct {
	MachineCrashPerMin     float64
	MachineUnhealthyPerMin float64
	ExecutorRestartPerMin  float64
	TaskCrashPerMin        float64
	TaskTimeoutPerMin      float64
	OutputLostPerMin       float64
	CacheWorkerCrashPerMin float64
	StragglerPerMin        float64
	// BurstProb is the probability that an arrival is a burst of 2..BurstMax
	// correlated faults of the same kind within one second (rack switch
	// reboots, correlated evictions).
	BurstProb float64
	BurstMax  int
	// RebootDelay is crash→rejoin; it must exceed the worst-case machine
	// failure detection delay (15 s) so a machine never rejoins a pool the
	// controller still believes it occupies.
	RebootDelay sim.Duration
	// RecoverDelay is the read-only machine's healthy observation window.
	RecoverDelay sim.Duration
	// AppErrorFraction of task crashes are application errors.
	AppErrorFraction float64
	// SlowdownMax bounds the straggler factor, drawn uniformly from
	// (1, SlowdownMax].
	SlowdownMax float64
	// OverloadPerMin is the thundering-herd arrival rate; the default
	// profile leaves it 0 because overload bursts only make sense against
	// a soak with admission control enabled (Config.Flow).
	OverloadPerMin float64
	// OverloadBurst is the submission count per overload fault (default 20).
	OverloadBurst int
}

// DefaultProfile returns a storm that exercises every fault kind hard but
// keeps jobs finishable: machines always come back, and most task crashes
// are recoverable infrastructure faults.
func DefaultProfile() Profile {
	return Profile{
		MachineCrashPerMin:     1.5,
		MachineUnhealthyPerMin: 1.5,
		ExecutorRestartPerMin:  4,
		TaskCrashPerMin:        6,
		TaskTimeoutPerMin:      2,
		OutputLostPerMin:       4,
		CacheWorkerCrashPerMin: 1,
		StragglerPerMin:        3,
		BurstProb:              0.15,
		BurstMax:               4,
		RebootDelay:            25 * sim.Second,
		RecoverDelay:           20 * sim.Second,
		AppErrorFraction:       0.03,
		SlowdownMax:            6,
	}
}

// overloadBurst is the submission count of one overload fault.
func (p Profile) overloadBurst() int {
	if p.OverloadBurst <= 0 {
		return 20
	}
	return p.OverloadBurst
}

// rates returns the per-kind rates indexed by FaultKind.
func (p Profile) rates() [numFaultKinds]float64 {
	return [numFaultKinds]float64{
		KindMachineCrash:     p.MachineCrashPerMin,
		KindMachineUnhealthy: p.MachineUnhealthyPerMin,
		KindExecutorRestart:  p.ExecutorRestartPerMin,
		KindTaskCrash:        p.TaskCrashPerMin,
		KindTaskTimeout:      p.TaskTimeoutPerMin,
		KindOutputLost:       p.OutputLostPerMin,
		KindCacheWorkerCrash: p.CacheWorkerCrashPerMin,
		KindStraggler:        p.StragglerPerMin,
		KindOverload:         p.OverloadPerMin,
	}
}

// GenerateSchedule samples a fault schedule over [0, window): each kind is
// an independent Poisson process (exponential inter-arrivals at its rate),
// arrivals optionally fan into short bursts, and machine-scoped faults draw
// their targets up front. A profile with an overload rate gets at least one
// overload burst. The result is sorted by time (kind, then target,
// break ties) and is a pure function of the rng's seed.
func GenerateSchedule(rng *rand.Rand, p Profile, window sim.Duration, machines, executors int) []Fault {
	var out []Fault
	overloads := 0
	minute := float64(60 * sim.Second)
	for kind, rate := range p.rates() {
		if rate <= 0 {
			continue
		}
		mean := minute / rate // mean inter-arrival in µs
		for t := sim.Time(rng.ExpFloat64() * mean); t < window; t += sim.Time(rng.ExpFloat64() * mean) {
			n := 1
			if p.BurstProb > 0 && rng.Float64() < p.BurstProb && p.BurstMax > 1 {
				n = 2 + rng.Intn(p.BurstMax-1)
			}
			for i := 0; i < n; i++ {
				at := t
				if i > 0 {
					at += sim.Time(rng.Int63n(int64(sim.Second)))
				}
				if at >= window {
					continue
				}
				f := Fault{At: at, Kind: FaultKind(kind)}
				switch f.Kind {
				case KindMachineCrash, KindMachineUnhealthy, KindCacheWorkerCrash:
					f.Machine = rng.Intn(machines)
				case KindExecutorRestart:
					f.Executor = rng.Intn(executors)
				case KindTaskCrash:
					f.AppErr = rng.Float64() < p.AppErrorFraction
				case KindStraggler:
					f.Factor = 1 + rng.Float64()*(p.SlowdownMax-1)
				case KindTaskTimeout, KindOutputLost:
					// task-scoped with no extra parameters: the victim is
					// drawn from the live tasks at injection time.
				case KindOverload:
					f.Count = p.overloadBurst()
					overloads++
				}
				out = append(out, f)
			}
		}
	}
	if p.OverloadPerMin > 0 && overloads == 0 && window > 0 {
		// A herd profile always herds: a window the Poisson draw left
		// without a burst gets one at a uniform time. It is the last draw,
		// so every schedule that drew a burst stays as it was.
		out = append(out, Fault{At: sim.Time(rng.Int63n(int64(window))), Kind: KindOverload, Count: p.overloadBurst()})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.Executor < b.Executor
	})
	return out
}
