package core

// Random-access decompression: the zsize side channel that enables the
// paper's block-parallel decompression (§6.1) also permits decoding any
// value range without touching the rest of the stream — the access pattern
// of the in-memory-compression use case from the paper's introduction
// (full-state quantum-circuit simulation), where a simulation repeatedly
// decompresses only the amplitude slabs it needs.

// decompressRange reconstructs values [lo, hi) from a stream, decoding only
// the blocks that overlap the range. The cost is one pass over the zsize
// table, which gives the first overlapped block's payload offset and checks
// the total against the payload, plus the overlapped blocks' payloads. The
// blocks decode whole into one buffer, and the range is returned from it.
func decompressRange[T Float, B Word](comp []byte, lo, hi int) ([]T, error) {
	si, err := ParseStream(comp)
	if err != nil {
		return nil, err
	}
	if si.Hdr.Type != dtypeOf[T]() {
		return nil, ErrWrongType
	}
	if lo < 0 || hi > si.Hdr.N || lo > hi {
		return nil, ErrCorrupt
	}
	if lo == hi {
		return []T{}, nil
	}
	bs := si.Hdr.BlockSize
	k0, k1 := lo/bs, (hi-1)/bs+1
	off := payloadBytes(si, 0, k0)
	if off+payloadBytes(si, k0, si.Hdr.NumBlocks()) > len(si.Payload) {
		return nil, ErrCorrupt
	}
	base := k0 * bs
	out := make([]T, min(k1*bs, si.Hdr.N)-base)
	if err := decodeBlocks[T, B](si, out, k0, k1, off); err != nil {
		return nil, err
	}
	return out[lo-base : hi-base : hi-base], nil
}

// DecompressFloat32Range reconstructs values [lo, hi) from a float32 stream.
func DecompressFloat32Range(comp []byte, lo, hi int) ([]float32, error) {
	return decompressRange[float32, uint32](comp, lo, hi)
}

// DecompressFloat64Range is the float64 analogue of DecompressFloat32Range.
func DecompressFloat64Range(comp []byte, lo, hi int) ([]float64, error) {
	return decompressRange[float64, uint64](comp, lo, hi)
}
