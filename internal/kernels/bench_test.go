package kernels

import (
	"math/rand"
	"testing"
)

func benchBlock32(n int) []float32 {
	rng := rand.New(rand.NewSource(7))
	blk := make([]float32, n)
	for i := range blk {
		blk[i] = 100 + float32(rng.NormFloat64())
	}
	return blk
}

func benchBlock64(n int) []float64 {
	rng := rand.New(rand.NewSource(7))
	blk := make([]float64, n)
	for i := range blk {
		blk[i] = 100 + rng.NormFloat64()
	}
	return blk
}

func BenchmarkStats(b *testing.B) {
	blk32 := benchBlock32(128)
	blk64 := benchBlock64(128)
	for _, name := range Available() {
		i32, _ := Lookup32(name)
		i64, _ := Lookup64(name)
		b.Run(name+"/f32", func(b *testing.B) {
			b.SetBytes(int64(4 * len(blk32)))
			for i := 0; i < b.N; i++ {
				sinkF32, sinkF32b, sinkBool = i32.Stats(blk32)
			}
		})
		b.Run(name+"/f64", func(b *testing.B) {
			b.SetBytes(int64(8 * len(blk64)))
			for i := 0; i < b.N; i++ {
				sinkF64, sinkF64b, sinkBool = i64.Stats(blk64)
			}
		})
	}
}

var (
	sinkF32, sinkF32b float32
	sinkF64, sinkF64b float64
	sinkBool          bool
)

func BenchmarkEncodeScan(b *testing.B) {
	blk32 := benchBlock32(128)
	blk64 := benchBlock64(128)
	scr := GetScratch()
	defer PutScratch(scr)
	lead := make([]byte, 32)
	mid := make([]byte, 8*128+8)
	for _, name := range Available() {
		i32, _ := Lookup32(name)
		i64, _ := Lookup64(name)
		b.Run(name+"/f32", func(b *testing.B) {
			b.SetBytes(int64(4 * len(blk32)))
			for i := 0; i < b.N; i++ {
				sinkInt, sinkBool = i32.EncodeScan(lead, mid, blk32, 100, 18, true, 0.01, 0.01, scr)
			}
		})
		b.Run(name+"/f64", func(b *testing.B) {
			b.SetBytes(int64(8 * len(blk64)))
			for i := 0; i < b.N; i++ {
				sinkInt, sinkBool = i64.EncodeScan(lead, mid, blk64, 100, 26, true, 0.01, 0.01, scr)
			}
		})
	}
}

func BenchmarkDecodeScan(b *testing.B) {
	blk32 := benchBlock32(128)
	blk64 := benchBlock64(128)
	scr := GetScratch()
	defer PutScratch(scr)
	lead := make([]byte, 32)
	mid := make([]byte, 8*128+8)
	out32 := make([]float32, 128)
	out64 := make([]float64, 128)
	// The plain cases give mid the rest of the buffer as capacity, like a
	// block in the middle of a stream; noslack is the stream's last block,
	// whose remainder goes through the scalar tail.
	ml32, _ := encodeScanGeneric[float32, uint32](lead, mid, blk32, 100, 18, false, 0, 0, scr)
	for _, name := range Available() {
		i32, _ := Lookup32(name)
		for _, c := range []struct {
			name string
			mid  []byte
		}{{"/f32", mid[:ml32]}, {"/f32/noslack", mid[:ml32:ml32]}} {
			b.Run(name+c.name, func(b *testing.B) {
				b.SetBytes(int64(4 * len(blk32)))
				for i := 0; i < b.N; i++ {
					sinkBool = i32.DecodeScan(out32, lead, c.mid, 100, 18)
				}
			})
		}
	}
	ml64, _ := encodeScanGeneric[float64, uint64](lead, mid, blk64, 100, 26, false, 0, 0, scr)
	for _, name := range Available() {
		i64, _ := Lookup64(name)
		for _, c := range []struct {
			name string
			mid  []byte
		}{{"/f64", mid[:ml64]}, {"/f64/noslack", mid[:ml64:ml64]}} {
			b.Run(name+c.name, func(b *testing.B) {
				b.SetBytes(int64(8 * len(blk64)))
				for i := 0; i < b.N; i++ {
					sinkBool = i64.DecodeScan(out64, lead, c.mid, 100, 26)
				}
			})
		}
	}
}

var sinkInt int
