package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Snapshot is a point-in-time copy of every registry row. Series maps each
// counter, gauge and dynamic-family series to its value under the key it
// has on the Prometheus page, `name{labels}` (bare `name` when unlabeled);
// Histograms maps each histogram family name to its snapshot, in the
// instrument's raw units (nanoseconds for the *_seconds families, whose
// exposition multiplies by 1e-9).
type Snapshot struct {
	Enabled    bool                         `json:"enabled"`
	Build      BuildInfo                    `json:"build"`
	Series     map[string]int64             `json:"series"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snap copies every registry row into a Snapshot. The copy is not a
// consistent cut across metrics (each value is loaded independently),
// which is the usual, and sufficient, contract for scrape-style export —
// but it is taken under the scrape lock's read side, so a concurrent Reset
// can never interleave mid-snapshot.
func Snap() Snapshot {
	scrapeMu.RLock()
	defer scrapeMu.RUnlock()
	s := Snapshot{
		Enabled:    Enabled(),
		Build:      GetBuildInfo(),
		Series:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for i := range registry {
		m := &registry[i]
		if m.h != nil {
			s.Histograms[m.name] = m.h.Snapshot()
			continue
		}
		for labels, v := range m.samples {
			s.Series[m.name+labels] = v
		}
	}
	return s
}

// Reset zeroes every registry row (the enabled gate and the info-style
// kernel dispatch series are left as-is). It must not race with in-flight
// instrumented calls if exact totals matter. It takes the scrape lock's
// write side, so a concurrent Prometheus scrape, Snap or Report sees the
// metrics either entirely before or entirely after the reset, never a torn
// mix (pinned by TestScrapeDuringReset).
func Reset() {
	scrapeMu.Lock()
	defer scrapeMu.Unlock()
	for i := range registry {
		m := &registry[i]
		switch {
		case m.reset != nil:
			m.reset()
		case m.c != nil:
			m.c.reset()
		case m.g != nil:
			m.g.reset()
		case m.h != nil:
			m.h.reset()
		}
	}
}

// Report renders the registry as a human-readable block of text, the
// -stats output of cmd/szx and cmd/szxbench: a header with the enabled
// gate and the binary's module path, then one line per family that has a
// non-zero series — every series of the family as `{labels} value`, or a
// histogram's count and mean in exposition units (seconds, not ns).
func Report() string {
	scrapeMu.RLock()
	defer scrapeMu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "szx telemetry (enabled=%v)\n  build: %s\n", Enabled(), GetBuildInfo().Module)
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	var vals []string
	nonzero := false
	for i := range registry {
		m := &registry[i]
		if m.h != nil {
			if n := m.h.count.Load(); n > 0 {
				fmt.Fprintf(tw, "  %s\tcount %d, mean %.4g\n", m.name, n, float64(m.h.sum.Load())*m.scale/float64(n))
			}
			continue
		}
		for labels, v := range m.samples {
			vals = append(vals, strings.TrimSpace(labels+" "+strconv.FormatInt(v, 10)))
			nonzero = nonzero || v != 0
		}
		if i+1 < len(registry) && registry[i+1].name == m.name {
			continue
		}
		if nonzero {
			fmt.Fprintf(tw, "  %s\t%s\n", m.name, strings.Join(vals, ", "))
		}
		vals, nonzero = vals[:0], false
	}
	tw.Flush()
	return b.String()
}
