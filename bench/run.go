package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one named set of inputs. Every workload is a closed loop
// with one generator goroutine: the next request is issued only when the
// previous one has returned.
type workload struct {
	name string
	why  string
	// tailPct is the percentile latency_tail_ms reports. It is pinned per
	// workload at the highest tailLadder rung with at least ten samples
	// beyond it at the design sample count, so the metric means the same
	// thing on a slow box as on a fast one.
	tailPct float64
	// iters is the number of timed iterations after each set-up.
	iters int
	// simLatency says the latency samples are simulated time: every
	// iteration of one seed yields the same ones (the replay checks that),
	// so only the first iteration's are kept.
	simLatency bool
	// prepare compiles what the workload needs; it is excluded from every
	// metric. May be nil.
	prepare func() error
	// setup makes the inputs from the seed and brings the program to the
	// state before the first timed iteration, including one warm-up
	// iteration. shrink divides the input size (1 = full size).
	setup func(seed int64, shrink int) (instance, error)
	// traced makes the per-layer pass.
	traced func(seed int64, shrink int, rec *recorder) (map[string]float64, iteration, error)
}

// instance is a set-up workload.
type instance interface {
	// iterate runs one timed iteration and checks its outputs. With a
	// recorder it also records spans.
	iterate(rec *recorder) (iteration, error)
	close() error
}

// iteration is what one timed iteration measured.
type iteration struct {
	wall float64 // host seconds
	// latMS holds latency samples in milliseconds per request type (one
	// type for jobs and submits, four for the TPC-H queries).
	latMS     map[string][]float64
	attempted int
	failed    int
	rssMB     float64 // peak RSS of a separate process under test; 0 = this process
	problems  []string
}

const minRounds = 3

// runUntraced measures a workload for about `seconds` host seconds: rounds
// of one set-up (timed as setup_s) followed by w.iters timed iterations,
// at least minRounds of them.
func runUntraced(w *workload, seed int64, seconds float64, shrink int) (result, error) {
	if w.prepare != nil {
		if err := w.prepare(); err != nil {
			return result{}, err
		}
	}
	var setups, walls, roundS, rss []float64
	lat := make(map[string][]float64)
	var attempted, failed int
	var problems []string
	start := time.Now()
	for rounds := 0; ; rounds++ {
		if rounds >= minRounds && time.Since(start).Seconds()+median(roundS) > seconds {
			break
		}
		runtime.GC() // level the heap so one round's garbage is not the next round's GC work
		t0 := time.Now()
		inst, err := w.setup(seed, shrink)
		if err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		for i := 0; i < w.iters; i++ {
			it, err := inst.iterate(nil)
			if err != nil {
				_ = inst.close() // the iteration error is the one to report
				return result{}, fmt.Errorf("%s: %w", w.name, err)
			}
			walls = append(walls, it.wall)
			for k, v := range it.latMS {
				if !w.simLatency || len(lat[k]) == 0 {
					lat[k] = append(lat[k], v...)
				}
			}
			attempted += it.attempted
			failed += it.failed
			problems = append(problems, it.problems...)
			if it.rssMB > 0 {
				rss = append(rss, it.rssMB)
			}
		}
		if err := inst.close(); err != nil {
			failed++
			problems = append(problems, err.Error())
		}
		roundS = append(roundS, time.Since(t0).Seconds())
	}

	peak := peakRSSMB("self")
	if len(rss) > 0 {
		peak = median(rss)
	}
	types := make([]string, 0, len(lat))
	for k := range lat {
		types = append(types, k)
	}
	sort.Strings(types)
	var p50s, tails []float64
	for _, k := range types {
		p50s = append(p50s, median(lat[k]))
		tails = append(tails, percentile(lat[k], w.tailPct))
	}
	vals := map[string]float64{
		"setup_s":         median(setups),
		"wall_s":          median(walls),
		"peak_rss_mb":     peak,
		"latency_p50_ms":  geomean(p50s),
		"latency_tail_ms": geomean(tails),
	}

	fmt.Printf("workload %s seed %d: %d set-ups, %d timed iterations in %.1f s\n",
		w.name, seed, len(setups), len(walls), time.Since(start).Seconds())
	fmt.Printf("  %-18s %12.4f s    median of %d (min %.4f, max %.4f)\n", "setup_s", vals["setup_s"], len(setups), sorted(setups)[0], sorted(setups)[len(setups)-1])
	fmt.Printf("  %-18s %12.4f s    median of %d (min %.4f, max %.4f)\n", "wall_s", vals["wall_s"], len(walls), sorted(walls)[0], sorted(walls)[len(walls)-1])
	fmt.Printf("  %-18s %12.2f MiB\n", "peak_rss_mb", peak)
	for i, k := range types {
		n := len(lat[k])
		fmt.Printf("  %-18s p50 %.4f ms, p%g %.4f ms over %d samples (%d beyond p%g)\n",
			"latency["+k+"]", p50s[i], w.tailPct, tails[i], n, beyond(n, w.tailPct), w.tailPct)
	}
	fmt.Printf("  %-18s %12.4f ms   geometric mean over %d request type(s)\n", "latency_p50_ms", vals["latency_p50_ms"], len(types))
	fmt.Printf("  %-18s %12.4f ms   p%g, geometric mean over %d request type(s)\n", "latency_tail_ms", vals["latency_tail_ms"], w.tailPct, len(types))
	fmt.Printf("  operations: %d attempted, %d failed\n", attempted, failed)
	for _, p := range problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
	for name, v := range vals {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			failed++
			fmt.Printf("  FAILED CHECK: metric %s = %v\n", name, v)
		}
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: fill(endToEnd, vals)}, nil
}

// runTraced makes the per-layer pass of a workload.
func runTraced(w *workload, seed int64, shrink int, rec *recorder) (result, error) {
	if w.prepare != nil {
		if err := w.prepare(); err != nil {
			return result{}, err
		}
	}
	vals, it, err := w.traced(seed, shrink, rec)
	if err != nil {
		return result{}, fmt.Errorf("%s: traced pass: %w", w.name, err)
	}
	fmt.Printf("workload %s seed %d: traced pass\n", w.name, seed)
	for _, d := range perLayer {
		if v, ok := vals[d.Name]; ok {
			fmt.Printf("  %-36s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
	fmt.Printf("  operations: %d attempted, %d failed\n", it.attempted, it.failed)
	for _, p := range it.problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
	return result{Correct: it.failed == 0, Attempted: it.attempted, Failed: it.failed, Metrics: fill(perLayer, vals)}, nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB from /proc
// ("self" is this process); 0 when unavailable.
func peakRSSMB(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
