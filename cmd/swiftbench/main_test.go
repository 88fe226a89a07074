package main

import (
	"bytes"
	"strings"
	"testing"

	"swift/internal/exp"
)

// TestOutOfBandExitsOne: a value outside its row's band makes swiftbench
// exit 1 and name the row on stderr, saying at a seed outside 1–3 that
// the bands do not hold it; a value in band exits 0.
func TestOutOfBandExitsOne(t *testing.T) {
	row := &exp.Fidelity[0]
	for _, seed := range []int64{1, 4} {
		for want, v := range []float64{row.Full.Lo, row.Full.Hi + 1} {
			var out, errs bytes.Buffer
			code := writeFidelity(&out, &errs, exp.Config{Seed: seed}, []exp.RunResult{{Fidelity: []exp.Measured{{Row: row, Band: row.Full, Value: v}}}})
			named := strings.Contains(errs.String(), row.Exp+` "`+row.Metric+`"`)
			noted := strings.Contains(errs.String(), "seeds 1–3 only")
			if code != want || named != (want == 1) || noted != (want == 1 && seed == 4) || !strings.Contains(out.String(), row.Metric) {
				t.Errorf("seed %d, value %v: exit %d, stderr %q, stdout:\n%s", seed, v, code, errs.String(), out.String())
			}
		}
	}
}
