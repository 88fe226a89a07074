package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// Verdicts of the comparator.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // the run-to-run spread exceeds the bound, so the medians cannot be told apart
)

// judge compares the values of one metric on one workload from two sets of
// runs: b is worse when its median is worse than a's by more than bound (a
// share of a's median), unresolved when either set's interquartile spread
// exceeds the bound.
func judge(a, b []float64, better string, bound float64) (ratio float64, verdict string) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma == 0 {
		return 0, verdictUnresolved
	}
	ratio = mb / ma
	change := ratio - 1
	if better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return ratio, verdictWorse
	case spread(a) > bound || spread(b) > bound:
		return ratio, verdictUnresolved
	}
	return ratio, verdictOK
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles compares the runs of two result files and reports whether
// no bounded metric got worse.
func compareFiles(pathA, pathB, specPath string, w io.Writer) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s (commit %s, %s, seed %d)\nb: %s (commit %s, %s, seed %d)\n",
		pathA, a.Header.Commit, a.Header.Go, a.Header.Seed, pathB, b.Header.Commit, b.Header.Go, b.Header.Seed)
	return compareRuns(a.Runs, b.Runs, spec, w), nil
}

type metricKey struct{ workload, metric string }

func collect(runs []run) (vals map[metricKey][]float64, attempted, failed int) {
	vals = make(map[metricKey][]float64)
	for _, r := range runs {
		attempted += r.Result.Attempted
		failed += r.Result.Failed
		for name, m := range r.Result.Metrics {
			k := metricKey{r.Workload, name}
			vals[k] = append(vals[k], m.Value)
		}
	}
	return vals, attempted, failed
}

// compareRuns prints one row per (workload, metric) present in both sets:
// both medians with their quartiles, the ratio b/a, and for end-to-end
// metrics the bound and the verdict. Per-layer metrics carry no bound and
// get no verdict. It reports whether no row is worse.
func compareRuns(a, b []run, spec *benchmarkSpec, w io.Writer) bool {
	va, attA, failA := collect(a)
	vb, attB, failB := collect(b)
	type def struct {
		unit, better string
		bound        float64
		bounded      bool
		order        int
	}
	defs := make(map[string]def)
	for i, m := range spec.EndToEnd {
		defs[m.Name] = def{m.Unit, m.Better, m.Bound, true, i}
	}
	for i, m := range spec.PerLayer {
		defs[m.Name] = def{m.Unit, m.Better, 0, false, len(spec.EndToEnd) + i}
	}
	var keys []metricKey
	for k := range va {
		if _, ok := vb[k]; ok {
			if _, known := defs[k.metric]; known {
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return defs[keys[i].metric].order < defs[keys[j].metric].order
	})

	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1, q3] (n)\tb median [q1, q3] (n)\tb/a\tbound\tverdict")
	for _, k := range keys {
		d := defs[k.metric]
		a1, a2, a3 := quartiles(va[k])
		b1, b2, b3 := quartiles(vb[k])
		if !d.bounded && a2 == 0 && b2 == 0 {
			continue // a layer this workload does not exercise
		}
		bound, verdict, ratio := "-", "-", 0.0
		if a2 != 0 {
			ratio = b2 / a2
		}
		if d.bounded {
			var v string
			ratio, v = judge(va[k], vb[k], d.better, d.bound)
			bound, verdict = fmt.Sprintf("%.2f", d.bound), v
			if v == verdictWorse {
				ok = false
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g] (%d)\t%.6g [%.6g, %.6g] (%d)\t%.4f\t%s\t%s\n",
			k.workload, k.metric, d.unit, a2, a1, a3, len(va[k]), b2, b1, b3, len(vb[k]), ratio, bound, verdict)
	}
	_ = tw.Flush() // w is a terminal or a test buffer
	fmt.Fprintf(w, "operations: a %d attempted, %d failed; b %d attempted, %d failed\n", attA, failA, attB, failB)
	if failA+failB > 0 {
		ok = false
	}
	return ok
}
