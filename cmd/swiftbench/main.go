// Command swiftbench regenerates the tables and figures of the paper's
// evaluation (Section V) on the simulated platform.
//
// Usage:
//
//	swiftbench [-seed N] [-run fig9a,table1,...] [-workers K] [-hashes]
//
// Every experiment runs at the paper's scale. With no -run flag every
// paper figure and table runs in paper order (the other experiments — see
// -list — run by name); fig16's sweep up to 140,000 executors is most of
// the wall clock. -workers fans experiments across a worker pool; reports
// still print in input order, then the exp.Fidelity rows of the
// experiments run, and a row out of its band makes swiftbench name it and
// exit 1. -hashes prints one "name hash" line per experiment instead — the
// obs stream hashes that witness a parallel sweep matching a serial one.
// internal/exp/testdata/hashes.txt pins them at seed 1 for every
// experiment but fig16, whose line there is its tests' short sweep.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"swift/internal/exp"
	"swift/internal/prof"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	run := flag.String("run", "", "comma-separated experiment ids (default: all); one of "+strings.Join(exp.Names(), ","))
	workers := flag.Int("workers", 1, "parallel experiment workers (0 = GOMAXPROCS)")
	hashes := flag.Bool("hashes", false, "print per-experiment obs stream hashes instead of reports")
	list := flag.Bool("list", false, "list experiment ids and exit")
	startProfiles := prof.Flags()
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(exp.Names(), "\n"))
		return
	}

	cfg := exp.Config{Seed: *seed}
	order := exp.PaperOrder()
	if *run != "" {
		order = strings.Split(*run, ",")
		for i := range order {
			order[i] = strings.TrimSpace(order[i])
		}
	}

	t0 := time.Now()
	stopProfiles := startProfiles()
	results := exp.RunAll(order, cfg, *workers, *hashes)
	stopProfiles()
	printed := 0
	for _, r := range results {
		if errors.Is(r.Err, exp.ErrUnknown) {
			fmt.Fprintf(os.Stderr, "swiftbench: unknown experiment %q (try -list)\n", r.Name)
			os.Exit(2)
		}
		if *hashes {
			fmt.Printf("%s %016x\n", r.Name, r.Hash)
			continue
		}
		if printed > 0 {
			fmt.Println()
		}
		fmt.Print(r.Output)
		printed++
	}
	if *hashes {
		return
	}
	code := writeFidelity(os.Stdout, os.Stderr, cfg, results)
	fmt.Printf("[%d experiments in %.1fs on %d workers]\n", len(results), time.Since(t0).Seconds(), *workers)
	os.Exit(code)
}

// writeFidelity prints the fidelity rows of results, names on stderr each
// row whose value left its band, and returns the exit status: 1 if any did.
// The bands hold seeds 1–3, so at another seed the line says so.
func writeFidelity(stdout, stderr io.Writer, cfg exp.Config, results []exp.RunResult) (code int) {
	note := ""
	if cfg.Seed < 1 || cfg.Seed > 3 {
		note = fmt.Sprintf(" (bands hold seeds 1–3 only: at seed %d this may be seed variance)", cfg.Seed)
	}
	var ms []exp.Measured
	for _, r := range results {
		ms = append(ms, r.Fidelity...)
	}
	if len(ms) > 0 {
		fmt.Fprintf(stdout, "\n%s", exp.FidelityTable(cfg, ms))
	}
	for _, m := range ms {
		if !m.InBand() {
			fmt.Fprintf(stderr, "swiftbench: fidelity row %s %q = %.4g, outside band %v%s\n", m.Row.Exp, m.Row.Metric, m.Value, m.Band, note)
			code = 1
		}
	}
	return code
}
