package obs

import (
	"fmt"
	"math"
	"testing"
)

// TestHashLineIsTheFormattedEvent holds the line streamHash folds to the
// fmt line the stream hash has always been defined by, on events that
// reach every field and the float forms where %g and strconv could part:
// infinities, NaN, negative zero, exponents and shortest round trips.
func TestHashLineIsTheFormattedEvent(t *testing.T) {
	events := []Event{
		{},
		{T: -1, Kind: EvTaskFinish, Job: "j", Stage: "s", To: "t", Index: 3, Attempt: 2, Graphlet: 1,
			Executor: -1, Machine: 7, Label: "a|b", Bytes: 1 << 40, Launch: 0.1, Read: 1e21, Process: 1e-7, Write: 123456789.125},
		{T: math.MaxInt64, Kind: Kind(200), Index: math.MinInt, Bytes: math.MinInt64,
			Launch: math.Inf(1), Read: math.Inf(-1), Process: math.NaN(), Write: math.Copysign(0, -1)},
		{Kind: EvTenantShare, Label: "é\n", Process: 2.0 / 3, Write: 5e-324},
	}
	for _, e := range events {
		want := fmt.Sprintf("%d|%s|%s|%s|%s|%d|%d|%d|%d|%d|%s|%d|%g|%g|%g|%g\n",
			e.T, e.Kind, e.Job, e.Stage, e.To, e.Index, e.Attempt, e.Graphlet,
			e.Executor, e.Machine, e.Label, e.Bytes, e.Launch, e.Read, e.Process, e.Write)
		var s streamHash
		s.fold(&e)
		if string(s.buf) != want {
			t.Errorf("folded line %q, want %q", s.buf, want)
		}
	}
}
