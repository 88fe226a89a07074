// Command swiftbench regenerates the tables and figures of the paper's
// evaluation (Section V) on the simulated platform.
//
// Usage:
//
//	swiftbench [-reduced] [-seed N] [-run fig9a,table1,...] [-workers K]
//
// With no -run flag every paper figure and table runs in paper order (the
// other experiments — see -list — run by name). The -reduced flag shrinks
// workloads to the CI-sized configurations the repository's tests use. -workers fans experiments across a worker
// pool; reports still print in input order. -hashes prints one
// "name hash" line per experiment instead of the reports — the obs
// stream hashes that witness a parallel sweep matching a serial one.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"swift/internal/exp"
	"swift/internal/prof"
)

func main() {
	reduced := flag.Bool("reduced", false, "run the CI-sized configurations")
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

	cfg := exp.Config{Reduced: *reduced, Seed: *seed}
	order := []string{"fig3", "fig8", "fig9a", "fig9b", "table1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"}
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
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "swiftbench: %s: %v\n", r.Name, r.Err)
			os.Exit(1)
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
	if !*hashes {
		fmt.Printf("[%d experiments in %.1fs on %d workers]\n", len(results), time.Since(t0).Seconds(), *workers)
	}
}
