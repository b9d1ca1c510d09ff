package szx

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/datagen"
)

// corpusFields returns the deterministic test corpus: every field of every
// datagen application at a small scale, so fixed-ratio probes run exact
// (whole-input) estimates and the search is fully reproducible.
func corpusFields() []datagen.Field {
	var out []datagen.Field
	for _, app := range datagen.AllApps(16, 42) {
		out = append(out, app.Fields...)
	}
	return out
}

func TestTargetRatioConvergence(t *testing.T) {
	fields := corpusFields()
	if len(fields) == 0 {
		t.Fatal("empty corpus")
	}
	type result struct {
		name      string
		target    float64
		probes    int
		converged bool
		achieved  float64
	}
	var unconverged []result
	total := 0
	for _, target := range []float64{4, 8} {
		for _, f := range fields {
			total++
			p, err := ResolvePlan(f.Data, Options{TargetRatio: target})
			if err != nil {
				t.Fatalf("%s target %g: %v", f.Name, target, err)
			}
			if p.Probes > 8 {
				t.Errorf("%s target %g: %d probes > 8", f.Name, target, p.Probes)
			}
			if !(p.Bound > 0) {
				t.Errorf("%s target %g: non-positive bound %g", f.Name, target, p.Bound)
			}
			comp, st, err := CompressStats(f.Data, Options{ErrorBound: p.Bound})
			if err != nil {
				t.Fatalf("%s: compress at resolved bound: %v", f.Name, err)
			}
			achieved := st.Ratio()
			t.Logf("%-28s n=%-7d target=%-3g probes=%d conv=%-5v bound=%.3g est=%.3f achieved=%.3f",
				f.Name, len(f.Data), target, p.Probes, p.Converged, p.Bound, p.EstimatedRatio, achieved)
			if p.Converged {
				if math.Abs(achieved/target-1) > 0.06 {
					t.Errorf("%s target %g: converged but achieved %.3f (off by %.1f%%)",
						f.Name, target, achieved, 100*math.Abs(achieved/target-1))
				}
			} else {
				unconverged = append(unconverged, result{f.Name, target, p.Probes, false, achieved})
			}
			_ = comp
		}
	}
	for _, r := range unconverged {
		t.Logf("UNCONVERGED %-28s target=%g probes=%d achieved=%.3f", r.name, r.target, r.probes, r.achieved)
	}
	t.Logf("unconverged: %d of %d", len(unconverged), total)
	// Ratio as a function of the bound is a staircase (per-block reqLen moves
	// in whole bits), so some (field, target) pairs have no bound within
	// tolerance: the target falls in the dead zone between two plateaus, or
	// below the field's saturation floor. Brute-force scans over 400
	// log-spaced bounds confirm every unconverged case here is such a dead
	// zone (e.g. density at this scale jumps from ratio 6.49 straight to
	// 41.4), and the search lands on the nearest plateau. The search must
	// still converge on the majority of the corpus, and the unconverged
	// remainder must stay within 25% below the target (wider misses only
	// happen as overshoot, when the field's saturation floor — a sparse
	// field that is mostly constant blocks at any bound — sits above the
	// requested ratio).
	if limit := total * 45 / 100; len(unconverged) > limit {
		t.Errorf("unconverged on %d of %d corpus cases (limit %d)", len(unconverged), total, limit)
	}
	for _, r := range unconverged {
		off := r.achieved/r.target - 1
		if off < -0.25 {
			t.Errorf("UNCONVERGED %s target=%g achieved=%.3f: undershoots by %.1f%%",
				r.name, r.target, r.achieved, -100*off)
		}
	}
}

func TestTargetRatioRespectsBound(t *testing.T) {
	for _, f := range corpusFields() {
		opt := Options{TargetRatio: 6}
		comp, st, err := CompressStats(f.Data, opt)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if st.EffectiveBound <= 0 {
			t.Fatalf("%s: stats carry no effective bound", f.Name)
		}
		h, err := Info(comp)
		if err != nil {
			t.Fatal(err)
		}
		if h.ErrBound != st.EffectiveBound {
			t.Fatalf("%s: header bound %g != stats bound %g", f.Name, h.ErrBound, st.EffectiveBound)
		}
		dec, err := Decompress(comp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dec {
			if d := math.Abs(float64(dec[i]) - float64(f.Data[i])); d > st.EffectiveBound {
				t.Fatalf("%s[%d]: |err| %g > bound %g", f.Name, i, d, st.EffectiveBound)
			}
		}
	}
}

func TestTargetRatioDegenerateInputs(t *testing.T) {
	flat := make([]float32, 4096) // all zero
	p, err := ResolvePlan(flat, Options{TargetRatio: 8})
	if err != nil {
		t.Fatalf("flat data: %v", err)
	}
	if !(p.Bound > 0) {
		t.Fatalf("flat data: bound %g", p.Bound)
	}
	comp, err := Compress(flat, Options{TargetRatio: 8})
	if err != nil {
		t.Fatalf("flat compress: %v", err)
	}
	if _, err := Decompress(comp); err != nil {
		t.Fatalf("flat roundtrip: %v", err)
	}

	if _, err := ResolvePlan([]float32{}, Options{TargetRatio: 8}); !errors.Is(err, ErrDegenerateRange) {
		t.Fatalf("empty data: got %v, want ErrDegenerateRange", err)
	}

	// Constant nonzero data picks a bound at the value's scale.
	c := make([]float32, 1024)
	for i := range c {
		c[i] = 273.15
	}
	p, err = ResolvePlan(c, Options{TargetRatio: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !(p.Bound > 0) || p.Bound > 273.15 {
		t.Fatalf("constant data bound %g out of scale", p.Bound)
	}
}

// TestOptionsValidation exercises the ErrBadOptions rejections at every
// entry point that accepts Options.
func TestOptionsValidation(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	bad := []struct {
		name string
		opt  Options
	}{
		{"negative bound", Options{ErrorBound: -1}},
		{"NaN bound", Options{ErrorBound: math.NaN()}},
		{"Inf bound", Options{ErrorBound: math.Inf(1)}},
		{"ratio below one", Options{TargetRatio: 0.5}},
		{"NaN ratio", Options{TargetRatio: math.NaN()}},
		{"Inf ratio", Options{TargetRatio: math.Inf(1)}},
		{"bound and ratio", Options{ErrorBound: 1e-3, TargetRatio: 8}},
		{"ratio with relative mode", Options{TargetRatio: 8, Mode: BoundRelative, ErrorBound: 0}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Compress(data, tc.opt); !errors.Is(err, ErrBadOptions) {
				t.Errorf("Compress: got %v, want ErrBadOptions", err)
			}
			if _, err := CompressFloat64([]float64{1, 2}, tc.opt); !errors.Is(err, ErrBadOptions) {
				t.Errorf("CompressFloat64: got %v, want ErrBadOptions", err)
			}
			if _, err := NewCodec[float32](tc.opt).Compress(data); !errors.Is(err, ErrBadOptions) {
				t.Errorf("Codec.Compress: got %v, want ErrBadOptions", err)
			}
			if _, err := CompressParallelInto(nil, data, tc.opt, 2); !errors.Is(err, ErrBadOptions) {
				t.Errorf("CompressParallelInto: got %v, want ErrBadOptions", err)
			}
			if _, err := ResolvePlan(data, tc.opt); !errors.Is(err, ErrBadOptions) {
				t.Errorf("ResolvePlan: got %v, want ErrBadOptions", err)
			}

			var buf bytes.Buffer
			sw := NewWriter(&buf, tc.opt, 2)
			if err := sw.Write(data); !errors.Is(err, ErrBadOptions) {
				t.Errorf("Writer.Write: got %v, want ErrBadOptions", err)
			}

			buf.Reset()
			pw := NewPipeWriter(&buf, tc.opt, 2, 2)
			err := pw.Write(data)
			if cerr := pw.Close(); err == nil {
				err = cerr
			}
			if !errors.Is(err, ErrBadOptions) {
				t.Errorf("PipeWriter: got %v, want ErrBadOptions", err)
			}

			aw := NewArchiveWriter(tc.opt)
			if err := aw.AddField("f", []int{4}, data); !errors.Is(err, ErrBadOptions) {
				t.Errorf("ArchiveWriter.AddField: got %v, want ErrBadOptions", err)
			}

			if _, err := NewTimeCompressor(tc.opt); !errors.Is(err, ErrBadOptions) {
				// NewTimeCompressor rejects relative mode with its own error
				// before validation sees it only when the options are
				// otherwise fine; all the table's rows are invalid, so
				// ErrBadOptions must win.
				t.Errorf("NewTimeCompressor: got %v, want ErrBadOptions", err)
			}
		})
	}

	// The wrapped cause stays reachable: a bad bound matches ErrErrBound too.
	if _, err := Compress(data, Options{ErrorBound: -1}); !errors.Is(err, ErrErrBound) {
		t.Errorf("negative bound should also match ErrErrBound, got %v", err)
	}
	// Historical behavior: a zero bound (nothing set at all) is the core's
	// bare ErrErrBound, not a validation error.
	if _, err := Compress(data, Options{}); !errors.Is(err, ErrErrBound) || errors.Is(err, ErrBadOptions) {
		t.Errorf("zero bound: got %v, want bare ErrErrBound", err)
	}
}

func TestResolvePlanRelative(t *testing.T) {
	data := []float32{0, 1, 2, 3, 4}
	p, err := ResolvePlan(data, Options{ErrorBound: 0.01, Mode: BoundRelative})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Bound-0.04) > 1e-12 {
		t.Fatalf("relative bound: got %g, want 0.04", p.Bound)
	}
	if _, err := ResolvePlan([]float32{5, 5, 5}, Options{ErrorBound: 0.01, Mode: BoundRelative}); err != ErrDegenerateRange {
		t.Fatalf("degenerate relative: got %v, want bare ErrDegenerateRange", err)
	}
}

// TestTargetRatioStreamIdentity pins that the inline Writer and the
// pipelined PipeWriter produce byte-identical fixed-ratio streams, chunk
// re-estimation included.
func TestTargetRatioStreamIdentity(t *testing.T) {
	f := corpusFields()[0]
	vals := f.Data
	for len(vals) < 3000 {
		vals = append(vals, vals...)
	}
	opt := Options{TargetRatio: 5}
	const chunk = 1000

	var serial bytes.Buffer
	sw := NewWriter(&serial, opt, chunk)
	if err := sw.Write(vals); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{1, 4} {
		var piped bytes.Buffer
		pw := NewPipeWriter(&piped, opt, chunk, par)
		if err := pw.Write(vals); err != nil {
			t.Fatal(err)
		}
		if err := pw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial.Bytes(), piped.Bytes()) {
			t.Fatalf("parallelism %d: pipelined fixed-ratio stream differs from serial", par)
		}
	}

	// And the stream must round-trip with the first chunk's bound honored.
	r := NewReader(bytes.NewReader(serial.Bytes()))
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("roundtrip length %d != %d", len(got), len(vals))
	}
}

func TestTargetRatioArchivePerField(t *testing.T) {
	apps := datagen.AllApps(16, 7)
	aw := NewArchiveWriter(Options{TargetRatio: 6})
	var names []string
	for _, f := range apps[0].Fields {
		if err := aw.AddField(f.Name, f.Dims, f.Data); err != nil {
			t.Fatal(err)
		}
		names = append(names, f.Name)
	}
	a, err := OpenArchive(aw.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[string]float64{}
	for _, fi := range a.Fields() {
		if fi.ErrBound <= 0 {
			t.Fatalf("field %s: no per-field resolved bound", fi.Name)
		}
		bounds[fi.Name] = fi.ErrBound
	}
	if len(bounds) != len(names) {
		t.Fatalf("got %d fields, want %d", len(bounds), len(names))
	}
	// Different fields have different ranges; at least two resolved bounds
	// should differ (a shared global bound would defeat per-field budgets).
	distinct := map[float64]bool{}
	for _, b := range bounds {
		distinct[b] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d fields resolved the same bound %v", len(bounds), bounds)
	}
}

func TestTargetRatioTimeSeries(t *testing.T) {
	f := corpusFields()[0]
	frame := f.Data[:4096]
	tc, err := NewTimeCompressor(Options{TargetRatio: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tc.EffectiveBound() != 0 {
		t.Fatalf("bound resolved before first frame: %g", tc.EffectiveBound())
	}
	td := NewTimeDecompressor()
	prev := frame
	for i := 0; i < 3; i++ {
		comp, err := tc.CompressFrame(prev)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := td.DecompressFrame(comp)
		if err != nil {
			t.Fatal(err)
		}
		bound := tc.EffectiveBound()
		if !(bound > 0) {
			t.Fatalf("frame %d: no effective bound", i)
		}
		for j := range dec {
			if d := math.Abs(float64(dec[j]) - float64(prev[j])); d > bound {
				t.Fatalf("frame %d[%d]: |err| %g > bound %g", i, j, d, bound)
			}
		}
		next := make([]float32, len(prev))
		for j := range next {
			next[j] = prev[j] + float32(i+1)*1e-4
		}
		prev = next
	}
}

// TestTargetRatioZeroAlloc pins the warm fixed-ratio search at zero
// allocations per operation on a reused Codec handle.
func TestTargetRatioZeroAlloc(t *testing.T) {
	f := corpusFields()[0]
	data := f.Data[:8192]
	c := NewCodec[float32](Options{TargetRatio: 6})
	if _, err := c.Compress(data); err != nil { // warm the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.Compress(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm fixed-ratio Codec.Compress: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkTargetRatio(b *testing.B) {
	f := corpusFields()[0]
	data := f.Data[:16384]
	c := NewCodec[float32](Options{TargetRatio: 6})
	if _, err := c.Compress(data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(data); err != nil {
			b.Fatal(err)
		}
	}
}
