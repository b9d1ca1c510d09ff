package service

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	szx "repro"
	"repro/internal/wireconv"
)

func putF32(b []byte, v float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(v)) }

// stageF32 is writeF32's staging step without the ResponseWriter: encode
// vals into the scratch's reused output buffer.
func stageF32(sc *scratch, vals []float32) {
	need := 4 * len(vals)
	out := sc.out[:0]
	if cap(out) < need {
		out = make([]byte, 0, need)
	}
	out = out[:need]
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	sc.out = out
}

// BenchmarkPooledCompressPath measures the admitted-request work for
// /v1/compress minus the HTTP stack: pull the body through the pooled
// scratch, decode bytes to values in reused capacity, compress on the
// pooled Codec. This is the path the pooling exists for — after warmup it
// must run at 0 allocs/op (ReportAllocs pins it in the benchmark output).
func BenchmarkPooledCompressPath(b *testing.B) {
	vals := make([]float32, 64*1024)
	for i := range vals {
		vals[i] = float32(i%97) * 0.125
	}
	var raw []byte
	{
		sc := getScratch(int64(len(raw)))
		raw = append(raw, make([]byte, 4*len(vals))...)
		for i, v := range vals {
			putF32(raw[4*i:], v)
		}
		putScratch(sc)
	}
	opt := szx.Options{ErrorBound: 1e-3}
	rd := bytes.NewReader(raw)

	// Warm one scratch through the pool so steady state starts at iter 0.
	{
		sc := getScratch(int64(len(raw)))
		rd.Reset(raw)
		body, err := sc.readBody(rd, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		sc.f32 = wireconv.F32(sc.f32, body)
		sc.c32.SetOptions(opt)
		if _, err := sc.c32.Compress(sc.f32); err != nil {
			b.Fatal(err)
		}
		putScratch(sc)
	}

	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := getScratch(int64(len(raw)))
		rd.Reset(raw)
		body, err := sc.readBody(rd, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		sc.f32 = wireconv.F32(sc.f32, body)
		sc.c32.SetOptions(opt)
		if _, err := sc.c32.Compress(sc.f32); err != nil {
			b.Fatal(err)
		}
		putScratch(sc)
	}
}

// BenchmarkPooledDecompressPath is the decompress-side twin, including
// the response staging (float→byte) conversion.
func BenchmarkPooledDecompressPath(b *testing.B) {
	vals := make([]float32, 64*1024)
	for i := range vals {
		vals[i] = float32(i%97) * 0.125
	}
	comp, err := szx.Compress(vals, szx.Options{ErrorBound: 1e-3})
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(comp)
	opt := szx.Options{}

	{
		sc := getScratch(int64(len(comp)))
		rd.Reset(comp)
		body, err := sc.readBody(rd, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		sc.c32.SetOptions(opt)
		out, err := sc.c32.Decompress(body)
		if err != nil {
			b.Fatal(err)
		}
		stageF32(sc, out)
		putScratch(sc)
	}

	b.SetBytes(int64(4 * len(vals)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := getScratch(int64(len(comp)))
		rd.Reset(comp)
		body, err := sc.readBody(rd, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		sc.c32.SetOptions(opt)
		out, err := sc.c32.Decompress(body)
		if err != nil {
			b.Fatal(err)
		}
		stageF32(sc, out)
		putScratch(sc)
	}
}

// TestPooledPathZeroAllocs is the gating form of the benchmarks above:
// after one warm pass, the pooled compress path must allocate nothing AND
// stay inside its size class — the two properties the size-classed pool
// exists for. The workers row takes the engine's serial fallback, which
// must cost nothing either.
func TestPooledPathZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int     // float32 values in the body
		scale   float32 // data shape
		workers int
	}{
		{"16KiB", 4 * 1024, 0.25, 0},
		{"16KiB workers 4", 4 * 1024, 0.25, 4},
		{"64KiB", 16 * 1024, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := make([]byte, 4*tc.n)
			for i := range tc.n {
				putF32(raw[4*i:], float32(i%31)*tc.scale)
			}
			rd := bytes.NewReader(raw)
			opt := szx.Options{ErrorBound: 1e-3, Workers: tc.workers}
			sc := getScratch(int64(len(raw))) // hold it so the pool can't evict it mid-test
			defer putScratch(sc)

			run := func() {
				rd.Reset(raw)
				body, err := sc.readBody(rd, 1<<30)
				if err != nil {
					t.Fatal(err)
				}
				sc.f32 = wireconv.F32(sc.f32, body)
				sc.c32.SetOptions(opt)
				if _, err := sc.c32.Compress(sc.f32); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the buffers
			if n := testing.AllocsPerRun(20, run); n > 0 {
				t.Fatalf("pooled compress path allocates %.1f times per request; want 0", n)
			}
			if cap(sc.raw) > scratchClassSizes[classForSize(int64(len(raw)))] {
				t.Fatalf("%d-byte requests grew the body buffer to %d bytes", len(raw), cap(sc.raw))
			}
		})
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so the handler's
// own allocations are all a measurement sees.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// rewindBody is a request body the test can replay without reallocating.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// TestHandlerScratchReuse drives warm requests through Handler().ServeHTTP
// at every scratch class size, one byte under and one byte over: each must
// find its scratch back in the pool it was leased from. The decompress rows
// decode outputs one and two classes above their bodies' class, whose
// output and value buffers must not move the scratch out of the body's
// pool. A scratch rebuild (buffers plus two Codecs) costs more than the
// 4 KiB budget at every class. GOMAXPROCS is pinned to 1 because
// sync.Pool's per-P caches miss when the goroutine moves between Ps.
func TestHandlerScratchReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := New(Config{DisableTracing: true}).Handler()
	w := &discardWriter{h: http.Header{}}
	reuse := func(what, target string, raw []byte) {
		body := rewindBody{bytes.NewReader(raw)}
		req := httptest.NewRequest("POST", target, body)
		req.ContentLength = int64(len(raw))
		serve := func() {
			body.Reset(raw)
			h.ServeHTTP(w, req)
		}
		serve() // warm this size's pool
		const runs = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			serve()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4<<10 {
			t.Errorf("%s: %d bytes allocated per warm request, want at most 4096", what, per)
		}
	}
	for _, size := range scratchClassSizes {
		for _, n := range []int{size - 1, size, size + 1} {
			reuse(fmt.Sprintf("%d-byte body", n), "/v1/compress?e=1e-3", make([]byte, n))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, out := range []int{2 << 20, 12 << 20} {
		vals := make([]float32, out/4)
		for i := range vals {
			vals[i] = float32(math.Sin(float64(i)/100) + 0.01*rng.NormFloat64())
		}
		comp, err := szx.Compress(vals, szx.Options{ErrorBound: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		if classForSize(int64(len(comp))) >= classForSize(int64(out)) {
			t.Fatalf("%d-byte body for a %d-byte output: want the body in a smaller class", len(comp), out)
		}
		reuse(fmt.Sprintf("decompress to %d bytes from a %d-byte body", out, len(comp)), "/v1/decompress", comp)
	}
}
