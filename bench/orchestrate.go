package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// header says where and on what a result file was measured.
type header struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
}

// run is one single-workload pass and the result line it printed.
type run struct {
	Set      int    `json:"set"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Header header `json:"header"`
	Runs   []run  `json:"runs"`
}

func printResult(w io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// orchestrator runs every selected workload in a process of its own, so
// that peak_rss_mb is one workload's and no heap is inherited.
type orchestrator struct {
	selected                         []*workload
	seed                             int64
	seconds                          float64
	runs, repeat                     int
	out, specPath                    string
	cpuProfile, memProfile, traceOut string
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout
	}
	return strings.TrimSpace(string(out))
}

func (o *orchestrator) run() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Header: header{Seed: o.seed, Seconds: o.seconds, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit()}}
	h := file.Header
	fmt.Printf("bench: seed %d, %g s per run, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		h.Seed, h.Seconds, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)

	failed := false
	child := func(set int, w *workload, seed int64, trace int) error {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
		suffix := ""
		if len(o.selected) > 1 {
			suffix = "." + w.name
		}
		if trace == 0 && o.cpuProfile != "" {
			args = append(args, "-cpuprofile", o.cpuProfile+suffix)
		}
		if trace == 0 && o.memProfile != "" {
			args = append(args, "-memprofile", o.memProfile+suffix)
		}
		if trace == 1 && o.traceOut != "" {
			args = append(args, "-traceout", o.traceOut+suffix)
		}
		var stdout bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			if runErr != nil {
				return fmt.Errorf("%s: %w", w.name, runErr)
			}
			return fmt.Errorf("%s: no result line: %w", w.name, err)
		}
		if !res.Correct {
			failed = true
		}
		file.Runs = append(file.Runs, run{Set: set, Workload: w.name, Seed: seed, Trace: trace, Result: res})
		return nil
	}

	for set := 0; set < o.repeat; set++ {
		for _, w := range o.selected {
			for k := 0; k < o.runs; k++ {
				if err := child(set, w, o.seed+int64(k), 0); err != nil {
					return err
				}
			}
		}
		if set == 0 {
			for _, w := range o.selected {
				if err := child(set, w, o.seed, 1); err != nil {
					return err
				}
			}
		}
	}

	worse := false
	for set := 1; set < o.repeat; set++ {
		spec, err := readSpec(o.specPath)
		if err != nil {
			return err
		}
		fmt.Printf("\nset %d against set 0:\n", set)
		if !compareRuns(file.inSet(0), file.inSet(set), spec, os.Stdout) {
			worse = true
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	switch {
	case failed:
		return errors.New("a workload failed its output checks")
	case worse:
		return errors.New("two sets of runs of the same code disagree beyond a bound")
	}
	return nil
}

func (f *resultFile) inSet(set int) []run {
	var out []run
	for _, r := range f.Runs {
		if r.Set == set {
			out = append(out, r)
		}
	}
	return out
}
