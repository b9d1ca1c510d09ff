package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ieee"
	"repro/telemetry"
)

func benchData(n int) []float32 {
	rng := rand.New(rand.NewSource(1))
	out := make([]float32, n)
	v := 5.0
	for i := range out {
		v += 0.1 * (rng.Float64() - 0.5)
		out[i] = float32(v + 2*math.Sin(float64(i)/40))
	}
	return out
}

func BenchmarkCoreCompressF32(b *testing.B) {
	data := benchData(1 << 21)
	b.SetBytes(int64(4 * len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := CompressFloat32(data, 1e-3, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreDecompressF32(b *testing.B) {
	data := benchData(1 << 21)
	comp, _ := CompressFloat32(data, 1e-3, Options{})
	b.SetBytes(int64(4 * len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := DecompressFloat32(comp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreCompressF64(b *testing.B) {
	d32 := benchData(1 << 20)
	data := make([]float64, len(d32))
	for i, v := range d32 {
		data[i] = float64(v)
	}
	b.SetBytes(int64(8 * len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := CompressFloat64(data, 1e-6, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreDecompressF64(b *testing.B) {
	d32 := benchData(1 << 20)
	data := make([]float64, len(d32))
	for i, v := range d32 {
		data[i] = float64(v)
	}
	comp, _ := CompressFloat64(data, 1e-6, Options{})
	b.SetBytes(int64(8 * len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := DecompressFloat64(comp); err != nil {
			b.Fatal(err)
		}
	}
}

// --- zero-allocation reuse (Into) variants ---------------------------------
//
// Each benchmark reuses its destination buffer across iterations, so after
// the first iteration warms the capacity the codec should report ~0
// allocs/op — the property the Into API exists to provide.

func benchData64(n int) []float64 {
	d32 := benchData(n)
	data := make([]float64, len(d32))
	for i, v := range d32 {
		data[i] = float64(v)
	}
	return data
}

func BenchmarkCoreCompressIntoF32(b *testing.B) {
	benchCompressInto(b, benchData(1<<21), 1e-3)
}

func BenchmarkCoreDecompressIntoF32(b *testing.B) {
	data := benchData(1 << 21)
	comp, _ := CompressFloat32(data, 1e-3, Options{})
	benchDecompressInto[float32](b, comp, len(data))
}

func BenchmarkCoreCompressIntoF64(b *testing.B) {
	benchCompressInto(b, benchData64(1<<20), 1e-6)
}

func BenchmarkCoreDecompressIntoF64(b *testing.B) {
	data := benchData64(1 << 20)
	comp, _ := CompressFloat64(data, 1e-6, Options{})
	benchDecompressInto[float64](b, comp, len(data))
}

func benchCompressInto[T Float](b *testing.B, data []T, bound float64) {
	var dst []byte
	b.SetBytes(int64(len(data) * ieee.Width[T]()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = CompressInto(dst[:0], data, bound, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecompressInto[T Float](b *testing.B, comp []byte, n int) {
	var dst []T
	b.SetBytes(int64(n * ieee.Width[T]()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = DecompressInto(dst[:0], comp); err != nil {
			b.Fatal(err)
		}
	}
}

// The parallel Into variants cannot be literally zero-alloc (goroutine
// bookkeeping), but the pooled shard scratch keeps allocations flat in the
// input size.

func BenchmarkCoreCompressParallelIntoF32(b *testing.B) {
	data := benchData(1 << 21)
	var dst []byte
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = CompressParallelInto(dst[:0], data, 1e-3, Options{}, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreDecompressParallelIntoF32(b *testing.B) {
	data := benchData(1 << 21)
	comp, _ := CompressFloat32(data, 1e-3, Options{})
	var dst []float32
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = DecompressParallelInto(dst[:0], comp, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreTelemetry measures what enabled codec telemetry costs the
// serial Into paths, against the ≤10% budget in DESIGN.md §11. Each op and
// element type runs its off arm and then its on arm, so one invocation
// interleaves the two. Go's -count repeats a sub-benchmark back to back
// instead, so repeat with a loop of -count 1 invocations:
//
//	for i in 1 2 3; do
//		go test -run '^$' -bench BenchmarkCoreTelemetry -benchtime 1s ./internal/core
//	done
func BenchmarkCoreTelemetry(b *testing.B) {
	f32, f64 := benchData(1<<21), benchData64(1<<20)
	comp32, err := CompressFloat32(f32, 1e-3, Options{})
	if err != nil {
		b.Fatal(err)
	}
	comp64, err := CompressFloat64(f64, 1e-6, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ops := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"compress/f32", func(b *testing.B) { benchCompressInto(b, f32, 1e-3) }},
		{"compress/f64", func(b *testing.B) { benchCompressInto(b, f64, 1e-6) }},
		{"decompress/f32", func(b *testing.B) { benchDecompressInto[float32](b, comp32, len(f32)) }},
		{"decompress/f64", func(b *testing.B) { benchDecompressInto[float64](b, comp64, len(f64)) }},
	}
	for _, op := range ops {
		b.Run(op.name+"/off", op.fn)
		b.Run(op.name+"/on", func(b *testing.B) {
			telemetry.Enable()
			defer telemetry.Disable()
			op.fn(b)
		})
	}
}
