package zfp

import "testing"

// FuzzDecompress hands every input to both widths' decoders; neither may
// panic.
func FuzzDecompress(f *testing.F) {
	data := gen3D(8, 8, 8, 1)
	comp, _ := Compress(as[float32](data), []int{8, 8, 8}, 1e-3)
	f.Add(comp)
	f.Add([]byte{})
	f.Add([]byte("ZFPG\x01\x03"))
	comp64, _ := CompressFloat64(data, []int{8, 8, 8}, 1e-6)
	f.Add(comp64)
	f.Fuzz(func(t *testing.T, comp []byte) {
		_, _, _ = Decompress(comp)
		_, _, _ = DecompressFloat64(comp)
	})
}
