// Package shuffle implements Swift's adaptive memory-based in-network
// shuffling (Section III-B): the three shuffle modes (Direct, Local via
// Cache Workers, Remote), their TCP-connection and memory-copy arithmetic,
// runtime mode selection by shuffle edge size, the in-memory Cache Worker
// with reference-counted segments, and the composed cost model used by the
// simulator. The disk-based mode used by the Spark/Bubble baselines lives
// here too so every engine shares one shuffle vocabulary.
package shuffle

// Mode is a data shuffling scheme.
type Mode int

const (
	// Direct sends shuffle data straight from producer tasks to consumer
	// tasks: fewest memory copies, M×N connections, incast-prone.
	Direct Mode = iota
	// Local routes both sides through the machine-local Cache Workers,
	// which maintain a long-lived mesh: fewest connections
	// (M + N + C(Y,2)), two extra memory copies.
	Local
	// Remote writes to the producer-side Cache Worker and lets consumer
	// tasks pull directly: M + N×Y connections, one extra copy.
	Remote
	// Disk is the file-based shuffle of Dryad/Spark/Bubble Execution:
	// write to local disks, read back over the network. Not used by
	// Swift itself; provided for the baselines.
	Disk
)

// String renders the mode name as used in the paper.
func (m Mode) String() string {
	switch m {
	case Direct:
		return "Direct"
	case Local:
		return "Local"
	case Remote:
		return "Remote"
	case Disk:
		return "Disk"
	}
	return "Invalid"
}

// Thresholds configures adaptive selection. The paper's production values
// are 10,000 and 90,000 shuffle edges. Both boundaries are half-open:
// [0, SmallMax) selects Direct, [SmallMax, LargeMin) Remote, and
// [LargeMin, ∞) Local, so each threshold value belongs to the bucket it
// opens. (An earlier version used `> LargeMin` on the upper boundary,
// silently classifying an edge of exactly LargeMin as middle-sized.)
type Thresholds struct {
	SmallMax int // edge sizes in [0, SmallMax) use Direct
	LargeMin int // edge sizes in [LargeMin, ∞) use Local; between: Remote
}

// DefaultThresholds returns the production thresholds from the paper.
func DefaultThresholds() Thresholds { return Thresholds{SmallMax: 10000, LargeMin: 90000} }

// Select returns the shuffle mode for an edge with the given shuffle size
// (number of producer-task × consumer-task links). "Direct Shuffle is used
// for small-sized shuffle, Local Shuffle for huge-sized shuffle, and Remote
// Shuffle for middle-sized shuffle."
func (t Thresholds) Select(edgeSize int) Mode {
	switch {
	case edgeSize < t.SmallMax:
		return Direct
	case edgeSize >= t.LargeMin:
		return Local
	default:
		return Remote
	}
}

// SizeClass buckets an edge size the way Fig. 12 labels its job categories.
type SizeClass int

// Size classes for reporting.
const (
	SmallShuffle SizeClass = iota
	MediumShuffle
	LargeShuffle
)

// String renders the class label.
func (c SizeClass) String() string {
	switch c {
	case SmallShuffle:
		return "small"
	case MediumShuffle:
		return "medium"
	case LargeShuffle:
		return "large"
	}
	return "invalid"
}

// Connections returns the worst-case TCP connection count each mode needs
// for a shuffle of m producers and n consumers spread over y machines
// (Section III-B's formulas: M×N, M+N+C(Y,2), M+N×Y).
func Connections(mode Mode, m, n, y int) int {
	if m <= 0 || n <= 0 {
		return 0
	}
	if y <= 0 {
		y = 1
	}
	switch mode {
	case Direct:
		return m * n
	case Local:
		return m + n + y*(y-1)/2
	case Remote:
		return m + n*y
	case Disk:
		// File-based shuffle still opens consumer->producer-machine
		// fetch connections, bounded by machines on the producer side.
		return n * min(m, y)
	}
	return 0
}

// ExtraCopies returns the additional memory copies a mode introduces over
// Direct Shuffle ("compared with Direct Shuffle, it introduces two
// additional times of memory copy"; Remote has "modest" — one).
func ExtraCopies(mode Mode) int {
	switch mode {
	case Local:
		return 2
	case Remote:
		return 1
	default:
		return 0
	}
}

// PerTaskConns returns the connections a single producer or consumer task
// must itself establish at shuffle time (long-lived Cache Worker mesh
// connections are pre-established and excluded).
func PerTaskConns(mode Mode, m, n, y int) (producer, consumer int) {
	if y <= 0 {
		y = 1
	}
	switch mode {
	case Direct:
		return n, m
	case Local:
		return 1, 1 // each side talks only to its local Cache Worker
	case Remote:
		return 1, min(m, y) // consumers pull from producer-side Cache Workers
	case Disk:
		return 0, min(m, y) // producers write local files; consumers fetch
	}
	return 0, 0
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
