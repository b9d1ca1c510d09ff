package szx

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/telemetry"
)

func testField(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	v := 100.0
	for i := range out {
		v += 0.5 * (rng.Float64() - 0.5)
		out[i] = float32(v + 3*math.Sin(float64(i)/60))
	}
	return out
}

func TestCompressDecompressAbsolute(t *testing.T) {
	data := testField(20000, 1)
	comp, err := Compress(data, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Abs(float64(data[i])-float64(dec[i])) > 1e-3 {
			t.Fatalf("value %d exceeds bound", i)
		}
	}
	if len(comp) >= 4*len(data) {
		t.Errorf("no compression achieved: %d vs %d", len(comp), 4*len(data))
	}
}

func TestCompressDecompressRelative(t *testing.T) {
	data := testField(20000, 2)
	mn, mx := data[0], data[0]
	for _, v := range data {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	rel := 1e-3
	abs := rel * (float64(mx) - float64(mn))
	comp, err := Compress(data, Options{ErrorBound: rel, Mode: BoundRelative})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Info(comp)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.ErrBound-abs)/abs > 1e-12 {
		t.Errorf("resolved bound %g want %g", h.ErrBound, abs)
	}
	dec, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Abs(float64(data[i])-float64(dec[i])) > abs {
			t.Fatalf("value %d exceeds relative bound", i)
		}
	}
}

func TestRelativeDegenerate(t *testing.T) {
	flat := make([]float32, 100)
	if _, err := Compress(flat, Options{ErrorBound: 1e-3, Mode: BoundRelative}); err != ErrDegenerateRange {
		t.Errorf("flat data: got %v", err)
	}
	if _, err := Compress(nil, Options{ErrorBound: 1e-3, Mode: BoundRelative}); err != ErrDegenerateRange {
		t.Errorf("empty data: got %v", err)
	}
}

// TestWorkersVariants runs every worker count through each compress and
// decompress entry point and checks the serial stream comes back. The core
// alone decides whether workers engage, so WorkersSerial never reaches the
// parallel engine, and at one P nothing fans out, batches included.
func TestWorkersVariants(t *testing.T) {
	data := testField(50000, 3)
	ref, err := Compress(data, Options{ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	// Four 50,000-byte arrays: each is under the engine's 64 KiB floor, the
	// batch as a whole is over it.
	arrays := [][]float32{data[:12500], data[12500:25000], data[25000:37500], data[37500:]}
	telemetry.Reset()
	telemetry.Enable()
	defer func() {
		telemetry.Disable()
		telemetry.Reset()
	}()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		runtime.GOMAXPROCS(procs)
		for _, w := range []int{WorkersSerial, WorkersAuto, 1, 3, 4, 9} {
			telemetry.Reset()
			opt := Options{ErrorBound: 1e-4, Workers: w}
			comp, err := CompressInto[float32](nil, data, opt)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if string(comp) != string(ref) {
				t.Fatalf("workers=%d: stream differs", w)
			}
			if cc, err := NewCodec[float32](opt).Compress(data); err != nil || string(cc) != string(ref) {
				t.Fatalf("workers=%d: Codec stream differs (err %v)", w, err)
			}
			outs, errs := CompressBatch[float32](nil, nil, arrays, opt)
			if err := errors.Join(errs...); err != nil {
				t.Fatalf("workers=%d: CompressBatch: %v", w, err)
			}
			aw := NewArchiveWriter(opt)
			if err := aw.AddField("f", []int{len(data)}, data); err != nil {
				t.Fatalf("workers=%d: AddField: %v", w, err)
			}
			sw := NewWriter(io.Discard, opt, 1<<14)
			if err := errors.Join(sw.Write(data), sw.Close()); err != nil {
				t.Fatalf("workers=%d: Writer: %v", w, err)
			}
			if n := telemetry.EngineCompressParallel.Load(); w == WorkersSerial && n != 0 {
				t.Errorf("WorkersSerial engaged the parallel compress engine %d times", n)
			}

			dec, err := DecompressParallel(comp, w)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if len(dec) != len(data) {
				t.Fatalf("workers=%d: wrong length", w)
			}
			if _, errs := DecompressBatch[float32](nil, nil, outs, w); errors.Join(errs...) != nil {
				t.Fatalf("workers=%d: DecompressBatch: %v", w, errors.Join(errs...))
			}
			if n := telemetry.ParallelParticipants.Load(); procs == 1 && n != 0 {
				t.Errorf("GOMAXPROCS 1, workers=%d: %d participants fanned out; want 0", w, n)
			}
		}
	}
}

func TestFloat64API(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := make([]float64, 10000)
	for i := range data {
		data[i] = math.Exp(math.Sin(float64(i)/200)) * (1 + 0.001*rng.NormFloat64())
	}
	comp, st, err := CompressFloat64Stats(data, Options{ErrorBound: 1e-6, Mode: BoundRelative})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ratio() <= 1 {
		t.Errorf("ratio %.2f", st.Ratio())
	}
	dec, err := DecompressFloat64Parallel(comp, WorkersAuto)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := Info(comp)
	for i := range data {
		if math.Abs(data[i]-dec[i]) > h.ErrBound {
			t.Fatalf("value %d exceeds bound", i)
		}
	}
	if h.Type != TypeFloat64 {
		t.Errorf("type %v", h.Type)
	}
}

func TestInfoRejectsGarbage(t *testing.T) {
	if _, err := Info([]byte("not a stream at all, definitely")); err == nil {
		t.Error("expected error")
	}
}

func TestStatsExposed(t *testing.T) {
	data := testField(12800, 5)
	_, st, err := CompressStats(data, Options{ErrorBound: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != 100 || st.OriginalSize != 4*12800 {
		t.Errorf("stats: %+v", st)
	}
}
