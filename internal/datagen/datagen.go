// Package datagen synthesizes deterministic stand-ins for the six SDRBench
// application datasets used in the SZx paper's evaluation (Table 2).
//
// The real datasets (CESM-ATM, Hurricane-ISABEL, Miranda, Nyx, QMCPack,
// SCALE-LetKF) are not redistributable here, so each generator produces
// fields with the same dimensionality, a matching number of representative
// fields, and — most importantly — local smoothness statistics tuned to
// reproduce the paper's Fig. 2 block-range CDF ordering: Miranda and
// QMCPack are the smoothest, CESM and SCALE-LetKF intermediate, Hurricane
// and Nyx the heaviest-tailed. SZx's behaviour depends only on these
// block-local statistics, so the substitution preserves the evaluation's
// shape (who compresses better, how ratios move with the error bound).
//
// All generators are deterministic in (scale, seed).
package datagen

import (
	"math"
	"math/rand"
)

// Field is one named variable of an application dataset.
type Field struct {
	Name string
	Dims []int // slowest-varying dimension first
	Data []float32
}

// NumElements returns the number of values in the field.
func (f Field) NumElements() int { return len(f.Data) }

// App is a synthetic application dataset: a set of fields sharing a grid.
type App struct {
	Name   string // full name, e.g. "Miranda"
	Short  string // paper's column label, e.g. "Mi."
	Fields []Field
}

// TotalBytes returns the uncompressed size of all fields (float32).
func (a App) TotalBytes() int {
	n := 0
	for _, f := range a.Fields {
		n += 4 * len(f.Data)
	}
	return n
}

// fieldKind selects the structural character of a generated field.
type fieldKind int

const (
	kindWaves     fieldKind = iota // smooth superposition of low-freq modes
	kindBumps                      // smooth + localized Gaussian structures
	kindLognormal                  // exp of smooth field: heavy-tailed
	kindSparse                     // mostly-zero with localized plumes
	kindFronts                     // smooth with sharp moving fronts
)

// fieldSpec describes one synthetic field.
type fieldSpec struct {
	name   string
	kind   fieldKind
	modes  int     // number of spectral modes
	wave   float64 // minimum wavelength in grid points (scale-invariant smoothness)
	noise  float64 // white-noise amplitude relative to signal scale
	scale  float64 // overall value scale
	offset float64
}

// genField synthesizes one field on the given grid.
func genField(dims []int, sp fieldSpec, rng *rand.Rand) Field {
	n := 1
	for _, d := range dims {
		n *= d
	}
	nd := len(dims)

	// Precompute per-axis mode tables: cos(2π x/λ + φ) per axis per mode.
	// Wavelengths are drawn in grid points, so the local smoothness is
	// independent of the grid scale.
	type axisTab struct{ vals []float64 }
	modeAmp := make([]float64, sp.modes)
	tabs := make([][]axisTab, sp.modes)
	for m := 0; m < sp.modes; m++ {
		// Red-ish spectrum: long-wavelength modes get larger amplitude.
		lam := sp.wave * (1 + 3*rng.Float64())
		modeAmp[m] = lam / (sp.wave * 4)
		tabs[m] = make([]axisTab, nd)
		for d := 0; d < nd; d++ {
			lamD := sp.wave * (1 + 3*rng.Float64())
			phase := rng.Float64() * 2 * math.Pi
			t := make([]float64, dims[d])
			for x := 0; x < dims[d]; x++ {
				t[x] = math.Cos(2*math.Pi*float64(x)/lamD + phase)
			}
			tabs[m][d] = axisTab{vals: t}
		}
	}

	// Gaussian bump tables (separable), used by kindBumps and kindSparse.
	// Bump widths are also in grid points.
	nBumps := 0
	if sp.kind == kindBumps || sp.kind == kindSparse {
		nBumps = 6 + rng.Intn(6)
	}
	bumpAmp := make([]float64, nBumps)
	bumpTabs := make([][]axisTab, nBumps)
	for b := 0; b < nBumps; b++ {
		bumpAmp[b] = 0.5 + rng.Float64()
		bumpTabs[b] = make([]axisTab, nd)
		for d := 0; d < nd; d++ {
			c := rng.Float64() * float64(dims[d])
			w := sp.wave * (0.5 + rng.Float64())
			t := make([]float64, dims[d])
			for x := 0; x < dims[d]; x++ {
				dx := (float64(x) - c) / w
				t[x] = math.Exp(-dx * dx)
			}
			bumpTabs[b][d] = axisTab{vals: t}
		}
	}

	// First pass: raw structure field g (before the per-kind transform).
	// Each term is amp·t₀[i₀]·…·t_last[x], multiplied left to right. The
	// product over every axis but the last is the same along a row, so it
	// is formed once per row (the prefixes) and each value multiplies in
	// only its last-axis factor. The explicit float64 conversions round
	// every product before it is summed, so no target may fuse a multiply
	// into the following add: the bytes match the per-value product.
	raw := make([]float64, n)
	idx := make([]int, nd) // row index; idx[nd-1] stays 0
	last := nd - 1
	rowLen := dims[last]
	pre := make([]float64, sp.modes+nBumps)
	lastTabs := make([][]float64, 0, sp.modes+nBumps) // modes, then bumps
	for m := 0; m < sp.modes; m++ {
		lastTabs = append(lastTabs, tabs[m][last].vals)
	}
	for b := 0; b < nBumps; b++ {
		lastTabs = append(lastTabs, bumpTabs[b][last].vals)
	}
	var sum, sumSq float64
	for row := 0; row < n; row += rowLen {
		for m := 0; m < sp.modes; m++ {
			p := modeAmp[m]
			for d := 0; d < last; d++ {
				p = float64(p * tabs[m][d].vals[idx[d]])
			}
			pre[m] = p
		}
		for b := 0; b < nBumps; b++ {
			p := bumpAmp[b]
			for d := 0; d < last; d++ {
				p = float64(p * bumpTabs[b][d].vals[idx[d]])
			}
			pre[sp.modes+b] = p
		}
		for x, i := 0, row; x < rowLen; x, i = x+1, i+1 {
			g := 0.0
			for t, p := range pre {
				g += float64(p * lastTabs[t][x])
			}
			raw[i] = g
			sum += g
			sumSq += float64(g * g)
		}

		// Advance the row index (row-major) over the leading axes.
		for d := last - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < dims[d] {
				break
			}
			idx[d] = 0
		}
	}

	// Standardize g so the nonlinear transforms behave identically across
	// grids and random mode draws.
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if std == 0 || math.IsNaN(std) {
		std = 1
	}

	data := make([]float32, n)
	for i := 0; i < n; i++ {
		g := (raw[i] - mean) / std
		if sp.noise > 0 {
			g += sp.noise * rng.NormFloat64()
		}
		var v float64
		switch sp.kind {
		case kindLognormal:
			v = sp.offset + sp.scale*math.Exp(1.5*g)
		case kindSparse:
			if g > 1.5 {
				v = sp.scale * (g - 1.5)
			} else {
				v = 0
			}
		case kindFronts:
			v = sp.offset + sp.scale*math.Tanh(4*g)
		default:
			v = sp.offset + sp.scale*g
		}
		data[i] = float32(v)
	}
	return Field{Name: sp.name, Dims: dims, Data: data}
}

func scaleDims(base []int, scale int) []int {
	if scale < 1 {
		scale = 1
	}
	out := make([]int, len(base))
	for i, d := range base {
		out[i] = d / scale
		if out[i] < 4 {
			out[i] = 4
		}
	}
	return out
}

// CESM generates the 2-D atmosphere dataset stand-in (real: 77 fields of
// 1800x3600; we generate 8 representative fields). scale divides the grid.
func CESM(scale int, seed int64) App {
	rng := rand.New(rand.NewSource(seed ^ 0xCE5))
	dims := scaleDims([]int{1800, 3600}, scale)
	specs := []fieldSpec{
		{name: "CLDHGH", kind: kindBumps, modes: 10, wave: 80, noise: 0.007, scale: 0.4, offset: 0.5},
		{name: "CLDLOW", kind: kindBumps, modes: 10, wave: 64, noise: 0.0105, scale: 0.4, offset: 0.5},
		{name: "PHIS", kind: kindFronts, modes: 8, wave: 128, noise: 0.00035, scale: 2500, offset: 2600},
		{name: "TS", kind: kindWaves, modes: 12, wave: 112, noise: 0.00175, scale: 30, offset: 280},
		{name: "PRECL", kind: kindSparse, modes: 10, wave: 48, noise: 0.0175, scale: 1e-7},
		{name: "U200", kind: kindWaves, modes: 14, wave: 96, noise: 0.007, scale: 25, offset: 5},
		{name: "FLNS", kind: kindWaves, modes: 10, wave: 96, noise: 0.0035, scale: 60, offset: 120},
		{name: "QREFHT", kind: kindWaves, modes: 9, wave: 112, noise: 0.0028, scale: 0.008, offset: 0.009},
	}
	return buildApp("CESM-ATM", "CE.", dims, specs, rng)
}

// Hurricane generates the Hurricane-ISABEL stand-in (real: 13 fields of
// 100x500x500; we generate 6 representative fields).
func Hurricane(scale int, seed int64) App {
	rng := rand.New(rand.NewSource(seed ^ 0x15ABE1))
	dims := scaleDims([]int{100, 500, 500}, scale)
	specs := []fieldSpec{
		{name: "CLOUDf48", kind: kindSparse, modes: 12, wave: 40, noise: 0.0175, scale: 0.002},
		{name: "QSNOWf48", kind: kindSparse, modes: 12, wave: 32, noise: 0.021, scale: 0.001},
		{name: "Uf48", kind: kindWaves, modes: 14, wave: 56, noise: 0.014, scale: 20, offset: 2},
		{name: "Vf48", kind: kindWaves, modes: 14, wave: 56, noise: 0.014, scale: 20, offset: -3},
		{name: "TCf48", kind: kindWaves, modes: 10, wave: 80, noise: 0.007, scale: 25, offset: 15},
		{name: "Pf48", kind: kindBumps, modes: 8, wave: 96, noise: 0.00525, scale: 4000, offset: 500},
	}
	return buildApp("Hurricane", "Hu.", dims, specs, rng)
}

// Miranda generates the large-eddy turbulence stand-in (real: 7 fields of
// 256x384x384; we generate the paper's exact 7 field names). Miranda is the
// smoothest dataset in Fig. 2, so noise is minimal.
func Miranda(scale int, seed int64) App {
	rng := rand.New(rand.NewSource(seed ^ 0x31124DA))
	dims := scaleDims([]int{256, 384, 384}, scale)
	specs := []fieldSpec{
		{name: "density", kind: kindFronts, modes: 8, wave: 256, noise: 0.0007, scale: 1.2, offset: 2.0},
		{name: "diffusivity", kind: kindFronts, modes: 8, wave: 256, noise: 0.0007, scale: 0.4, offset: 0.6},
		{name: "pressure", kind: kindFronts, modes: 6, wave: 320, noise: 0.00035, scale: 0.8, offset: 3.5},
		{name: "velocity-x", kind: kindFronts, modes: 10, wave: 224, noise: 0.0014, scale: 0.5},
		{name: "velocity-y", kind: kindFronts, modes: 10, wave: 224, noise: 0.0014, scale: 0.5},
		{name: "velocity-z", kind: kindFronts, modes: 10, wave: 224, noise: 0.0014, scale: 0.5},
		{name: "viscocity", kind: kindFronts, modes: 8, wave: 256, noise: 0.0007, scale: 0.3, offset: 0.4},
	}
	return buildApp("Miranda", "Mi.", dims, specs, rng)
}

// Nyx generates the cosmology stand-in (real: 6 fields of 512^3). Density
// fields are lognormal (heavy-tailed), matching Nyx's wide block-range CDF.
func Nyx(scale int, seed int64) App {
	rng := rand.New(rand.NewSource(seed ^ 0x427))
	dims := scaleDims([]int{512, 512, 512}, scale)
	specs := []fieldSpec{
		{name: "baryon_density", kind: kindLognormal, modes: 12, wave: 40, noise: 0.0175, scale: 1e2},
		{name: "dark_matter_density", kind: kindLognormal, modes: 12, wave: 36, noise: 0.021, scale: 1e2},
		{name: "temperature", kind: kindLognormal, modes: 12, wave: 28, noise: 0.028, scale: 1e4},
		{name: "velocity_x", kind: kindWaves, modes: 12, wave: 72, noise: 0.0105, scale: 1e7},
		{name: "velocity_y", kind: kindWaves, modes: 12, wave: 72, noise: 0.0105, scale: 1e7},
		{name: "velocity_z", kind: kindWaves, modes: 12, wave: 72, noise: 0.0105, scale: 1e7},
	}
	return buildApp("Nyx", "Ny.", dims, specs, rng)
}

// QMCPack generates the quantum-chemistry stand-in (real: 2 fields of
// 288/816x115x69x69 einspline coefficients): very smooth oscillatory data.
func QMCPack(scale int, seed int64) App {
	rng := rand.New(rand.NewSource(seed ^ 0x93C))
	dims := scaleDims([]int{288, 115, 69, 69}, scale)
	specs := []fieldSpec{
		{name: "einspline", kind: kindFronts, modes: 8, wave: 512, noise: 0.00035, scale: 0.7},
		{name: "einspline-prec", kind: kindFronts, modes: 10, wave: 384, noise: 0.0007, scale: 0.5},
	}
	return buildApp("QMCPack", "QM.", dims, specs, rng)
}

// ScaleLetKF generates the weather-assimilation stand-in (real: 12 fields
// of 98x1200x1200; we generate 5 representative fields).
func ScaleLetKF(scale int, seed int64) App {
	rng := rand.New(rand.NewSource(seed ^ 0x5CA1E))
	dims := scaleDims([]int{98, 1200, 1200}, scale)
	specs := []fieldSpec{
		{name: "U", kind: kindWaves, modes: 12, wave: 80, noise: 0.007, scale: 15, offset: 3},
		{name: "V", kind: kindWaves, modes: 12, wave: 80, noise: 0.007, scale: 15, offset: -2},
		{name: "W", kind: kindWaves, modes: 14, wave: 48, noise: 0.014, scale: 2},
		{name: "T", kind: kindWaves, modes: 9, wave: 112, noise: 0.0035, scale: 25, offset: 270},
		{name: "QC", kind: kindSparse, modes: 12, wave: 40, noise: 0.0175, scale: 0.001},
	}
	return buildApp("SCALE-LetKF", "SL.", dims, specs, rng)
}

func buildApp(name, short string, dims []int, specs []fieldSpec, rng *rand.Rand) App {
	app := App{Name: name, Short: short}
	for _, sp := range specs {
		app.Fields = append(app.Fields, genField(dims, sp, rng))
	}
	return app
}

// AllApps generates all six application stand-ins at the given grid scale.
// scale=8 yields a few hundred thousand values per field (fast benches);
// scale=1 approaches the papers' full grids.
func AllApps(scale int, seed int64) []App {
	return []App{
		CESM(scale, seed),
		Hurricane(scale, seed),
		Miranda(scale, seed),
		Nyx(scale, seed),
		QMCPack(scale, seed),
		ScaleLetKF(scale, seed),
	}
}

// Slice2D extracts a 2-D slice (the first two of the last dimensions) from
// a field at the given index of the slowest dimension, for SSIM/visual
// metrics. For 2-D fields it returns the whole field.
func Slice2D(f Field) (data []float32, h, w int) {
	switch len(f.Dims) {
	case 1:
		return f.Data, 1, f.Dims[0]
	case 2:
		return f.Data, f.Dims[0], f.Dims[1]
	default:
		h = f.Dims[len(f.Dims)-2]
		w = f.Dims[len(f.Dims)-1]
		mid := (len(f.Data) / (h * w)) / 2
		return f.Data[mid*h*w : (mid+1)*h*w], h, w
	}
}
