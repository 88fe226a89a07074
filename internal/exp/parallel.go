package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"swift/internal/obs"
)

// The parallel sweep runner. Every experiment (and, in cmd/swiftchaos,
// every soak seed) is an isolated simulation: it builds its own engine,
// its own RNGs and — via Config.Obs — its own recorder, so fanning runs
// across OS threads cannot perturb any run's virtual execution. The only
// nondeterminism a worker pool introduces is completion ORDER, and Sweep
// erases it by writing each result into its input slot: res[i] depends
// only on run(i), never on scheduling. RunAll then exposes the proof:
// per-run obs stream hashes, which must be byte-for-byte identical
// whether the sweep ran on one worker or sixteen.

// ErrUnknown reports a sweep name that no experiment registers.
var ErrUnknown = errors.New("unknown experiment")

// Sweep runs run(0..n-1) on a pool of workers and returns the results in
// input order. workers <= 0 means GOMAXPROCS; workers == 1 degenerates to
// a plain serial loop (no goroutines, no channels), which doubles as the
// reference execution for determinism checks.
func Sweep[T any](n, workers int, run func(i int) T) []T {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	res := make([]T, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			res[i] = run(i)
		}
		return res
	}
	type slot struct {
		i int
		v T
	}
	jobs := make(chan int)
	out := make(chan slot)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out <- slot{i, run(i)}
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(out)
	}()
	// Results arrive in completion order; the indexed write restores input
	// order, so the merged slice is independent of worker scheduling.
	for s := range out {
		res[s.i] = s.v
	}
	return res
}

// RunResult is one experiment's outcome in a RunAll sweep.
type RunResult struct {
	Name     string
	Output   string     // the rendered paper-style report
	Fidelity []Measured // the experiment's Fidelity rows, read off Result
	Hash     uint64     // obs stream hash of every simulated run the experiment made
	Err      error      // ErrUnknown for an unregistered name
}

// RunAll executes the named experiments on a worker pool and returns their
// reports in input order. With hashes, each experiment gets a fresh
// hash-only recorder, so its Hash witnesses that experiment's simulated
// event stream in isolation: RunAll(names, cfg, 1, true) and
// RunAll(names, cfg, k, true) must agree on every Output and every Hash.
// The recorder keeps no events, but folding each one still costs; a
// caller that only wants the reports passes false and pays for no
// recording (Hash is then the empty-stream hash). Either way a recorder
// already present in cfg is dropped — the experiments must not share one.
func RunAll(names []string, cfg Config, workers int, hashes bool) []RunResult {
	return Sweep(len(names), workers, func(i int) RunResult {
		c := cfg
		c.Obs = nil
		if hashes {
			c.Obs = obs.NewHash()
		}
		run, ok := registry[names[i]]
		if !ok {
			return RunResult{Name: names[i], Err: fmt.Errorf("%w %q", ErrUnknown, names[i])}
		}
		result, report := run(c)
		return RunResult{Name: names[i], Output: report.String(), Fidelity: measure(names[i], result), Hash: c.Obs.StreamHash()}
	})
}
