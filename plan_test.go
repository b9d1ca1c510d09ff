package szx

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
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
			popt := tc.opt
			popt.Workers = 2
			if _, err := CompressInto(nil, data, popt); !errors.Is(err, ErrBadOptions) {
				t.Errorf("CompressInto with Workers 2: got %v, want ErrBadOptions", err)
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

// TestRelativeLeadingNaN: a relative or fixed-ratio bound scales the range
// of the non-NaN values wherever the NaNs sit, including data[0] and the
// first value of a stream chunk, where the range scan seeds itself.
func TestRelativeLeadingNaN(t *testing.T) {
	nan := float32(math.NaN())
	rel := Options{ErrorBound: 0.01, Mode: BoundRelative}

	// One-shot: a leading NaN resolves the same bound as an inner one.
	for _, data := range [][]float32{{nan, 1, 2, 3}, {1, nan, 2, 3}} {
		comp, err := Compress(data, rel)
		if err != nil {
			t.Fatalf("%v: %v", data, err)
		}
		h, err := Info(comp)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(h.ErrBound-0.02) > 1e-15 {
			t.Errorf("%v: resolved bound %g, want 0.02", data, h.ErrBound)
		}
	}

	// Stream: a NaN opening the second chunk must not fail the stream.
	const chunk = 4096
	data := testField(3*chunk, 3)
	data[chunk] = nan
	var buf bytes.Buffer
	w := NewWriter(&buf, rel, chunk)
	if err := errors.Join(w.Write(data), w.Close()); err != nil {
		t.Fatalf("stream with a NaN at value %d: %v", chunk, err)
	}
	stream := buf.Bytes()
	dec, err := NewReader(bytes.NewReader(stream)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Each frame's bound is 0.01 of its chunk's non-NaN range, and the
	// decoded chunk stays within it.
	fr := frameReader{r: bytes.NewReader(stream)}
	for lo := 0; lo < len(data); lo += chunk {
		frame, idx, _, err := fr.next(nil)
		if err != nil {
			t.Fatal(err)
		}
		h, err := Info(frame)
		if err != nil {
			t.Fatal(err)
		}
		mn, mx := nonNaNRange(data[lo : lo+chunk])
		if want := rel.ErrorBound * (mx - mn); h.ErrBound != want {
			t.Errorf("frame %d: bound %g, want %g", idx, h.ErrBound, want)
		}
		for i := lo; i < lo+chunk; i++ {
			if d := math.Abs(float64(data[i]) - float64(dec[i])); d > h.ErrBound || (d != d) != (data[i] != data[i]) {
				t.Fatalf("value %d: %g decoded as %g (frame bound %g)", i, data[i], dec[i], h.ErrBound)
			}
		}
	}

	// Fixed ratio: a leading NaN must not send the search down the
	// constant-data path, whose bound ignores the data's range.
	data = testField(8192, 5)
	data[0] = nan
	p, err := ResolvePlan(data, Options{TargetRatio: 3})
	if err != nil {
		t.Fatal(err)
	}
	if mn, mx := nonNaNRange(data); !p.Converged || !(p.Bound > 0) || p.Bound > (mx-mn)/2 {
		t.Errorf("leading NaN: bound %g (converged %v, %d probes), want a converged search within the range",
			p.Bound, p.Converged, p.Probes)
	}
}

// nonNaNRange is the range of vals' non-NaN values by a plain loop, kept
// apart from core.ValueRange so that it can check it.
func nonNaNRange(vals []float32) (mn, mx float64) {
	mn, mx = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v == v {
			mn, mx = min(mn, float64(v)), max(mx, float64(v))
		}
	}
	return mn, mx
}

// TestRelativeConcurrentCodecs resolves relative bounds from several
// goroutines at once: four relative-bound Codecs at Workers 2 share the
// engine's worker pool, each compressing a NaN-bearing field, and every
// output must equal the serial stream byte for byte. ParallelMinBytes = 0
// keeps Workers 2 on the parallel engine even at GOMAXPROCS 1.
func TestRelativeConcurrentCodecs(t *testing.T) {
	saved := core.ParallelMinBytes
	core.ParallelMinBytes = 0
	defer func() { core.ParallelMinBytes = saved }()
	data := testField(1<<17, 19)
	for i := 0; i < len(data); i += 1024 { // data[0] and every 8th block start
		data[i] = float32(math.NaN())
	}
	opt := Options{ErrorBound: 1e-3, Mode: BoundRelative}
	want, err := CompressInto(nil, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 2
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewCodec[float32](opt)
			for i := 0; i < 3; i++ {
				got, err := c.Compress(data)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("goroutine %d call %d: stream differs from serial CompressInto", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRangeResolvedGoldenHashes pins, with SHA-256 hashes recorded before
// the range scan moved into internal/core, the streams whose bound is
// resolved from a value range on NaN-free data: a relative-bound one-shot
// of each element type, a relative-bound SZXS container that resolves
// every chunk, and a fixed-ratio SZXS container whose chunk 0 runs the
// full search and whose later chunks re-estimate, each at Workers 0 and 2.
// ParallelMinBytes = 0 keeps Workers 2 on the parallel engine even at
// GOMAXPROCS 1.
func TestRangeResolvedGoldenHashes(t *testing.T) {
	saved := core.ParallelMinBytes
	core.ParallelMinBytes = 0
	defer func() { core.ParallelMinBytes = saved }()

	f32 := testField(100000, 41)
	f64 := make([]float64, len(f32))
	for i, v := range f32 {
		f64[i] = float64(v) + 1e-7*float64(i%13)
	}
	rel := Options{ErrorBound: 1e-3, Mode: BoundRelative}
	container := func(opt Options) ([]byte, error) {
		var buf bytes.Buffer
		w := NewWriter(&buf, opt, 1<<15)
		err := errors.Join(w.Write(f32), w.Close())
		return buf.Bytes(), err
	}
	for _, tc := range []struct {
		name, golden string
		build        func(opt Options) ([]byte, error)
		opt          Options
	}{
		{"relative f32 one-shot", "f8e652e148c96d1fb78db9863649de3376bdf660588db554f454966014f372d2",
			func(o Options) ([]byte, error) { return CompressInto(nil, f32, o) }, rel},
		{"relative f64 one-shot", "ecc0ad36cfc27e782d0bb0689b97828012eedcc88b711f0e3d7609de29061cc2",
			func(o Options) ([]byte, error) { return CompressInto(nil, f64, o) }, rel},
		{"relative SZXS", "2b2525a931e837ad46aacfb0948cdbc8fe931970565524a5d75a463e32157b6b", container, rel},
		{"target-ratio SZXS", "d4c4de64e767ba38524f59639360414f297207365276b78d82f8bd943d6985b0", container, Options{TargetRatio: 6}},
	} {
		for _, w := range []int{0, 2} {
			opt := tc.opt
			opt.Workers = w
			out, err := tc.build(opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			if got := hex.EncodeToString(sumOf(out)); got != tc.golden {
				t.Errorf("%s workers=%d: stream hash %s, want %s", tc.name, w, got, tc.golden)
			}
		}
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
