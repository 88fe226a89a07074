package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"swift/internal/metrics"
)

// Registry is the counters/gauges/histograms half of the observability
// plane, built on internal/metrics. It is snapshotted at end of run into
// deterministic text (names sorted, fixed formatting). A nil *Registry is
// a valid, disabled registry.
type Registry struct {
	counts *metrics.Counter
	gauges map[string]float64
	hists  map[string]*metrics.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: metrics.NewCounter(),
		gauges: make(map[string]float64),
		hists:  make(map[string]*metrics.Histogram),
	}
}

// Count adds delta to the named counter.
func (g *Registry) Count(name string, delta int64) {
	if g == nil {
		return
	}
	g.counts.Add(name, delta)
}

// Counter returns the current value of a named counter (0 if never
// counted, or for a nil registry).
func (g *Registry) Counter(name string) int64 {
	if g == nil {
		return 0
	}
	return g.counts.Get(name)
}

// Gauge sets the named gauge to v (last write wins).
func (g *Registry) Gauge(name string, v float64) {
	if g == nil {
		return
	}
	g.gauges[name] = v
}

// Observe records v into the named histogram, creating it with the given
// bounds on first use (later bounds are ignored; the first caller fixes
// the shape).
func (g *Registry) Observe(name string, lo, hi float64, bins int, v float64) {
	if g == nil {
		return
	}
	h, ok := g.hists[name]
	if !ok {
		h = metrics.NewHistogram(lo, hi, bins)
		g.hists[name] = h
	}
	h.Add(v)
}

// WriteTo renders the deterministic end-of-run snapshot: counters, gauges
// and histograms, each section sorted by name.
func (g *Registry) WriteTo(w io.Writer) (int64, error) {
	var b bytes.Buffer
	if g == nil {
		b.WriteString("obs: recording disabled\n")
		n, err := w.Write(b.Bytes())
		return int64(n), err
	}
	keys := g.counts.Keys()
	if len(keys) > 0 {
		b.WriteString("counters:\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-32s %d\n", k, g.counts.Get(k))
		}
	}
	if len(g.gauges) > 0 {
		names := make([]string, 0, len(g.gauges))
		for k := range g.gauges {
			names = append(names, k)
		}
		sort.Strings(names)
		b.WriteString("gauges:\n")
		for _, k := range names {
			fmt.Fprintf(&b, "  %-32s %g\n", k, g.gauges[k])
		}
	}
	if len(g.hists) > 0 {
		names := make([]string, 0, len(g.hists))
		for k := range g.hists {
			names = append(names, k)
		}
		sort.Strings(names)
		b.WriteString("histograms:\n")
		for _, k := range names {
			h := g.hists[k]
			fmt.Fprintf(&b, "  %s: range=[%g,%g) total=%d under=%d over=%d\n",
				k, h.Lo, h.Hi, h.Total, h.Underflow, h.Overflow)
			// One compact row of non-empty bins keeps snapshots greppable.
			var cells []string
			for i, c := range h.Counts {
				if c > 0 {
					cells = append(cells, fmt.Sprintf("%g:%d", h.BinCenter(i), c))
				}
			}
			if len(cells) > 0 {
				fmt.Fprintf(&b, "    bins %s\n", strings.Join(cells, " "))
			}
		}
	}
	n, err := w.Write(b.Bytes())
	return int64(n), err
}

// Snapshot returns WriteTo's output as a string.
func (g *Registry) Snapshot() string {
	var b bytes.Buffer
	// bytes.Buffer writes cannot fail.
	_, _ = g.WriteTo(&b)
	return b.String()
}
