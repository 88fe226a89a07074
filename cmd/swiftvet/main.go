// Command swiftvet runs the project's static analyzers (internal/lint)
// over the named packages — the repository-specific companion to go vet,
// enforcing the invariants stock tooling cannot know about: simulator
// determinism, lock discipline (nothing that may block — a second mutex
// included — runs under a held mutex, directly or through the
// whole-program call graph), error discipline, enum-switch exhaustiveness,
// and batch/row kernel parity.
//
// Usage:
//
//	go run ./cmd/swiftvet [-json] [-why] [packages...]
//
// Packages default to ./... . Exit status is 0 when clean, 1 on any
// finding, 2 on load/usage errors. Note that a narrow explicit pattern
// parses only the named packages' bodies, so interprocedural chains
// through unlisted packages are invisible; run ./... (as CI does) for
// authoritative whole-program results. With -json the findings stream to
// stdout as a single JSON array of {analyzer, file, line, col, message,
// why} objects for tooling. With -why each finding about a call under a
// held mutex is followed by its indented call-chain witness, one frame per
// line, ending at the terminal may-block fact.
//
// A finding cannot be silenced, only fixed; see DESIGN.md's "Static
// analysis" section for the analyzer catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"swift/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	why := flag.Bool("why", false, "print the call-chain witness under each held-mutex call finding")
	flag.Parse()

	pkgs, fset, err := lint.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swiftvet:", err)
		os.Exit(2)
	}
	cfg := lint.DefaultConfig()
	if len(pkgs) > 0 && pkgs[0].Module != "" {
		cfg = lint.ConfigForModule(pkgs[0].Module)
	}
	findings := lint.RunPackages(fset, pkgs, cfg)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "swiftvet:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
			if *why {
				for _, frame := range f.Why {
					fmt.Printf("\t%s\n", frame)
				}
			}
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "swiftvet: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}
