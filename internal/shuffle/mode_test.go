package shuffle

import "testing"

// TestSelectThresholds pins the half-open boundary semantics over the
// paper's 10,000/90,000 production values: [0, SmallMax) → Direct,
// [SmallMax, LargeMin) → Remote, [LargeMin, ∞) → Local. The 90,000 row
// fails against the old asymmetric `> LargeMin` comparison, which silently
// classified an edge of exactly LargeMin as middle-sized.
func TestSelectThresholds(t *testing.T) {
	th := DefaultThresholds()
	cases := []struct {
		size int
		want Mode
	}{
		{1, Direct},
		{9999, Direct},
		{10000, Remote}, // boundary: SmallMax opens the Remote bucket
		{50000, Remote},
		{89999, Remote},
		{90000, Local}, // boundary: LargeMin opens the Local bucket
		{90001, Local},
		{2250000, Local}, // 1500x1500 Terasort
	}
	for _, c := range cases {
		if got := th.Select(c.size); got != c.want {
			t.Errorf("Select(%d) = %v, want %v", c.size, got, c.want)
		}
	}
}

// TestSizeClass checks the Fig. 12 class labels.
func TestSizeClass(t *testing.T) {
	if SmallShuffle.String() != "small" || MediumShuffle.String() != "medium" || LargeShuffle.String() != "large" {
		t.Error("class strings wrong")
	}
	if SizeClass(99).String() != "invalid" {
		t.Error("invalid class string")
	}
}

func TestConnectionsFormulas(t *testing.T) {
	// Section III-B: M×N, M+N+C(Y,2), M+N×Y.
	m, n, y := 100, 200, 10
	if got := Connections(Direct, m, n, y); got != 20000 {
		t.Errorf("Direct conns = %d", got)
	}
	if got := Connections(Local, m, n, y); got != 100+200+45 {
		t.Errorf("Local conns = %d", got)
	}
	if got := Connections(Remote, m, n, y); got != 100+200*10 {
		t.Errorf("Remote conns = %d", got)
	}
	if got := Connections(Direct, 0, 5, 1); got != 0 {
		t.Errorf("degenerate conns = %d", got)
	}
	if got := Connections(Local, 5, 5, 0); got != 10 {
		t.Errorf("zero-machine conns = %d", got)
	}
	// Ordering claimed by the paper for realistic shapes (Y << M, N):
	// Local < Remote < Direct.
	if !(Connections(Local, m, n, y) < Connections(Remote, m, n, y) &&
		Connections(Remote, m, n, y) < Connections(Direct, m, n, y)) {
		t.Error("connection-count ordering violated")
	}
}

func TestExtraCopies(t *testing.T) {
	if ExtraCopies(Direct) != 0 || ExtraCopies(Remote) != 1 || ExtraCopies(Local) != 2 || ExtraCopies(Disk) != 0 {
		t.Error("copy counts wrong")
	}
}

func TestPerTaskConns(t *testing.T) {
	p, c := PerTaskConns(Direct, 100, 200, 10)
	if p != 200 || c != 100 {
		t.Errorf("Direct per-task = %d,%d", p, c)
	}
	p, c = PerTaskConns(Local, 100, 200, 10)
	if p != 1 || c != 1 {
		t.Errorf("Local per-task = %d,%d", p, c)
	}
	p, c = PerTaskConns(Remote, 100, 200, 10)
	if p != 1 || c != 10 {
		t.Errorf("Remote per-task = %d,%d", p, c)
	}
	p, c = PerTaskConns(Disk, 100, 200, 10)
	if p != 0 || c != 10 {
		t.Errorf("Disk per-task = %d,%d", p, c)
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{Direct: "Direct", Local: "Local", Remote: "Remote", Disk: "Disk", Mode(9): "Invalid"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
}
