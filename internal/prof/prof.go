// Package prof gives the command-line binaries the -cpuprofile and
// -memprofile flags `go test` and bench/ already have.
package prof

import (
	"flag"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags registers -cpuprofile and -memprofile on the default flag set.
// Call it before flag.Parse and the returned start after; start begins the
// CPU profile and returns stop, which ends it and writes the heap profile.
// Call stop when the work worth profiling is done, before any os.Exit. A
// profile that cannot be written is fatal: the run was for it.
func Flags() (start func() (stop func())) {
	cpu := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	mem := flag.String("memprofile", "", "write a heap profile, taken when the run's work is done, to this file")
	check := func(err error) {
		if err != nil {
			log.Fatal("profile: ", err)
		}
	}
	return func() func() {
		var cf *os.File
		if *cpu != "" {
			f, err := os.Create(*cpu)
			check(err)
			check(pprof.StartCPUProfile(f))
			cf = f
		}
		return func() {
			if cf != nil {
				pprof.StopCPUProfile()
				check(cf.Close())
			}
			if *mem != "" {
				f, err := os.Create(*mem)
				check(err)
				runtime.GC() // bring the allocation statistics up to date
				check(pprof.WriteHeapProfile(f))
				check(f.Close())
			}
		}
	}
}
