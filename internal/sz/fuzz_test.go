package sz

import "testing"

// FuzzDecompress hands every input to both widths' decoders; neither may
// panic. The seeds include a stream of each width, a regression stream and
// a stream whose bound is forged to +Inf.
func FuzzDecompress(f *testing.F) {
	data := gen2D(20, 20, 1)
	comp, _ := Compress(as[float32](data), []int{20, 20}, 1e-3, Options{})
	f.Add(comp)
	f.Add([]byte{})
	f.Add([]byte("SZ2G\x01\x02"))
	comp64, _ := CompressFloat64(data, []int{20, 20}, 1e-6, Options{})
	f.Add(comp64)
	reg, _ := Compress(as[float32](data), []int{20, 20}, 1e-3, Options{Predictor: PredAuto})
	f.Add(reg)
	f.Add(forgeInfBound(comp))
	f.Fuzz(func(t *testing.T, comp []byte) {
		_, _, _ = Decompress(comp)
		_, _, _ = DecompressFloat64(comp)
	})
}
