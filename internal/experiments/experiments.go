// Package experiments regenerates every table and figure of the SZx
// paper's evaluation (§7) on the synthetic application datasets: one driver
// per artifact, each returning a Report with paper-style rows. The
// cmd/szxbench binary runs all drivers and renders EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/lossless"
	"repro/internal/metrics"
	"repro/internal/sz"
	"repro/internal/zfp"
)

// Config controls dataset sizes and measurement effort.
type Config struct {
	// Scale divides the paper's dataset grids (1 = full size, 8 = default
	// bench size, 16+ = test size).
	Scale int
	// Seed makes the synthetic datasets reproducible.
	Seed int64
	// Workers is the goroutine count for the multicore experiments
	// (0 = GOMAXPROCS).
	Workers int
	// Quick trims sweeps and repetitions for use in unit tests.
	Quick bool
}

func (c Config) scale() int {
	if c.Scale < 1 {
		return 8
	}
	return c.Scale
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 20220627 // HPDC '22 opening day
	}
	return c.Seed
}

// Report is a regenerated paper artifact.
type Report struct {
	ID    string // e.g. "Table 3", "Fig. 14"
	Title string
	// Header and Rows form the artifact's table.
	Header []string
	Rows   [][]string
	// Notes records paper-vs-measured observations for EXPERIMENTS.md.
	Notes []string
}

// Render formats the report as a fixed-width text table.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	line(dashes(widths))
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the report as a GitHub-flavored markdown table.
func (r Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	b.WriteString("| " + strings.Join(r.Header, " | ") + " |\n")
	seps := make([]string, len(r.Header))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range r.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// --- codec adapters -------------------------------------------------------

// codec is the uniform view of the four compressors under evaluation.
type codec struct {
	name string
	// compress takes the absolute error bound (ignored by lossless codecs).
	compress   func(data []float32, dims []int, abs float64) ([]byte, error)
	decompress func(comp []byte, n int) ([]float32, error)
}

func szxCodec(workers int) codec {
	return codec{
		name: "SZx",
		compress: func(data []float32, dims []int, abs float64) ([]byte, error) {
			if workers > 1 {
				return core.CompressFloat32Parallel(data, abs, core.Options{}, workers)
			}
			return core.CompressFloat32(data, abs, core.Options{})
		},
		decompress: func(comp []byte, n int) ([]float32, error) {
			if workers > 1 {
				return core.DecompressFloat32Parallel(comp, workers)
			}
			return core.DecompressFloat32(comp)
		},
	}
}

func szCodec() codec {
	return codec{
		name: "SZ",
		compress: func(data []float32, dims []int, abs float64) ([]byte, error) {
			return sz.Compress(data, dims, abs, sz.Options{})
		},
		decompress: func(comp []byte, n int) ([]float32, error) {
			out, _, err := sz.Decompress(comp)
			return out, err
		},
	}
}

func zfpCodec() codec {
	return codec{
		name: "ZFP",
		compress: func(data []float32, dims []int, abs float64) ([]byte, error) {
			return zfp.Compress(data, dims, abs)
		},
		decompress: func(comp []byte, n int) ([]float32, error) {
			out, _, err := zfp.Decompress(comp)
			return out, err
		},
	}
}

func zstdLikeCodec() codec {
	return codec{
		name: "zstd*",
		compress: func(data []float32, dims []int, abs float64) ([]byte, error) {
			return lossless.CompressLZ(lossless.Float32Bytes(data)), nil
		},
		decompress: func(comp []byte, n int) ([]float32, error) {
			raw, err := lossless.DecompressLZ(comp)
			if err != nil {
				return nil, err
			}
			return lossless.BytesFloat32(raw)
		},
	}
}

// --- measurement helpers --------------------------------------------------

// measure times fn and returns the median call's seconds. It times at
// least 5 calls, and outside Quick mode more (up to 20) while a 150 ms
// budget lasts: the median keeps one call that a busy host delayed from
// deciding a cell.
func (c Config) measure(fn func()) float64 {
	const minReps, maxReps = 5, 20
	budget := 150 * time.Millisecond
	if c.Quick {
		budget = 0
	}
	times := make([]time.Duration, 0, maxReps)
	var total time.Duration
	for len(times) < minReps || (total < budget && len(times) < maxReps) {
		start := time.Now()
		fn()
		d := time.Since(start)
		times = append(times, d)
		total += d
	}
	slices.Sort(times)
	return times[len(times)/2].Seconds()
}

// relToAbs converts a value-range-based relative bound to absolute.
func relToAbs(data []float32, rel float64) float64 {
	mn, mx := metrics.ValueRange(data)
	r := mx - mn
	if r == 0 {
		r = 1
	}
	return rel * r
}

// crStats compresses every field of an app and returns min/overall/max CR.
// Overall is the paper's harmonic aggregate: total original bytes over
// total compressed bytes.
func crStats(app datagen.App, rel float64, c codec) (mn, overall, mx float64, err error) {
	var ratios []float64
	var orig, comp []int
	for _, f := range app.Fields {
		abs := relToAbs(f.Data, rel)
		out, cerr := c.compress(f.Data, f.Dims, abs)
		if cerr != nil {
			return 0, 0, 0, fmt.Errorf("%s/%s: %w", app.Name, f.Name, cerr)
		}
		ratios = append(ratios, float64(4*len(f.Data))/float64(len(out)))
		orig = append(orig, 4*len(f.Data))
		comp = append(comp, len(out))
	}
	sort.Float64s(ratios)
	return ratios[0], metrics.HarmonicMeanCR(orig, comp), ratios[len(ratios)-1], nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// apps returns the six synthetic applications for this config.
func (c Config) apps() []datagen.App {
	return datagen.AllApps(c.scale(), c.seed())
}

// sampleFields trims an app's field list in Quick mode.
func (c Config) sampleFields(app datagen.App, max int) datagen.App {
	if !c.Quick || len(app.Fields) <= max {
		return app
	}
	out := app
	out.Fields = app.Fields[:max]
	return out
}
