package core

import (
	"slices"

	"repro/internal/bitio"
	"repro/internal/ieee"
	"repro/internal/kernels"
	"repro/telemetry"
)

// This file holds the codec's one decompressor and its block decoder;
// DecompressFloat32 / DecompressFloat64 below are its pinned per-type
// instantiations.

// appendDecompressed appends the values of comp onto dst. It is the codec's
// only decompressor: one block loop, decodeBlocks, split among the
// participants that Participants grants workers over the output's bytes.
//
// On one participant the blocks decode on the caller, each from the payload
// offset the walk has reached, so with enough capacity in dst the call
// allocates nothing. workers == 1 is the serial codec; any other request
// that Participants narrows to one participant is the engine's serial
// fallback.
//
// On more participants one pass over the zsize table (the paper's prefix
// sum, Fig. 10) stores each chunk's first payload offset and checks the
// total against the payload before dst grows, so a forged stream claiming a
// huge N fails before its output is allocated. Then each participant
// decodes the chunks it claims.
func appendDecompressed[T Float, B Word](dst []T, comp []byte, workers int) ([]T, error) {
	rec := telemetry.Enabled()
	var tm telemetry.Timer
	if rec {
		tm = telemetry.Start()
	}
	si, err := ParseStream(comp)
	if err != nil {
		return nil, err
	}
	if si.Hdr.Type != dtypeOf[T]() {
		return nil, ErrWrongType
	}
	es := ieee.Width[T]()
	nb := si.Hdr.NumBlocks()
	chunk, nchunks, participants := split(nb, workers, es*si.Hdr.N)
	if rec {
		switch {
		case participants > 1:
			telemetry.EngineDecompressParallel.Inc()
		case workers != 1:
			telemetry.EngineDecompressFallback.Inc()
		}
	}
	var j *parJob
	if participants > 1 {
		j = getParJob(nchunks, participants)
		off := 0
		for c := range j.metas {
			j.metas[c].off = off
			off += payloadBytes(si, c*chunk, min((c+1)*chunk, nb))
		}
		if off > len(si.Payload) {
			parJobPool.Put(j)
			return nil, ErrCorrupt
		}
	}
	base := len(dst)
	dst = slices.Grow(dst, si.Hdr.N)[:base+si.Hdr.N]
	if dst == nil {
		dst = []T{} // empty stream into nil dst: succeed with a non-nil slice
	}
	out := dst[base:]
	if j == nil {
		err = decodeBlocks[T, B](si, out, 0, nb, 0)
	} else {
		bs := si.Hdr.BlockSize
		fanOut("decode", nchunks, participants, true, func(id, c int) {
			k0, k1 := c*chunk, min((c+1)*chunk, nb)
			if err := decodeBlocks[T, B](si, out[k0*bs:min(k1*bs, len(out))], k0, k1, j.metas[c].off); err != nil {
				j.errs[id] = err
			}
		})
		for _, e := range j.errs {
			if e != nil {
				err = e
				break
			}
		}
		parJobPool.Put(j)
	}
	if err != nil {
		return nil, err
	}
	if rec {
		if participants == 1 {
			telemetry.EngineDecompressSerial.Inc()
		}
		recordDecodedBlocks(si)
		telemetry.RecordDecompress(len(comp), es*si.Hdr.N, tm.Elapsed())
	}
	return dst, nil
}

// payloadBytes sums the zsize entries of blocks [k0, k1).
func payloadBytes(si Index, k0, k1 int) int {
	n := 0
	for k := k0; k < k1; k++ {
		n += si.BlockSizeBytes(k)
	}
	return n
}

// decodeBlocks is the codec's one decode loop. It reconstructs blocks
// [k0, k1) into out, which holds exactly their values, reading block k0's
// payload at offset off of the stream's payload and each later block's
// right after the one before it.
func decodeBlocks[T Float, B Word](si Index, out []T, k0, k1, off int) error {
	bs := si.Hdr.BlockSize
	for k := k0; k < k1; k++ {
		lo := (k - k0) * bs
		end := off + si.BlockSizeBytes(k)
		if end > len(si.Payload) {
			return ErrCorrupt
		}
		if err := decodeBlock[T, B](si.Payload[off:end], si.IsNonConstant(k), out[lo:min(lo+bs, len(out))]); err != nil {
			return err
		}
		off = end
	}
	return nil
}

// decodeBlock reconstructs one block from its payload.
func decodeBlock[T Float, B Word](p []byte, nonConstant bool, out []T) error {
	es := ieee.Width[T]()
	if !nonConstant {
		if len(p) < es {
			return ErrCorrupt
		}
		mu := ieee.FromBits[T](ieee.GetLE[B](p))
		// Doubling fill: each copy is a wide memmove over an exponentially
		// growing prefix, instead of one store per element.
		if len(out) > 0 {
			out[0] = mu
			for f := 1; f < len(out); f *= 2 {
				copy(out[f:], out[:f])
			}
		}
		return nil
	}
	n := len(out)
	leadLen := bitio.PackedLen(n)
	if len(p) < es+1+leadLen {
		return ErrCorrupt
	}
	mu := ieee.FromBits[T](ieee.GetLE[B](p))
	reqLen := int(p[es])
	if reqLen < ieee.SignExpBits[T]() || reqLen > ieee.FullBits[T]() {
		return ErrCorrupt
	}
	lead := p[es+1 : es+1+leadLen]
	mid := p[es+1+leadLen:]

	// The packed-lead reconstruction is the dispatched DecodeScan kernel
	// (generic or vector, selected at init); header parsing and validation
	// stay here.
	var ok bool
	if es == 4 {
		ok = kernels.K32.DecodeScan(asF32(out), lead, mid, float32(mu), reqLen)
	} else {
		ok = kernels.K64.DecodeScan(asF64(out), lead, mid, float64(mu), reqLen)
	}
	if !ok {
		return ErrCorrupt
	}
	return nil
}

// --- exported wrappers (historical per-type API) ---------------------------

// DecompressFloat32 reconstructs the values from a stream produced by
// CompressFloat32.
func DecompressFloat32(comp []byte) ([]float32, error) {
	return appendDecompressed[float32, uint32](nil, comp, 1)
}

// DecompressFloat64 reconstructs the values from a stream produced by
// CompressFloat64.
func DecompressFloat64(comp []byte) ([]float64, error) {
	return appendDecompressed[float64, uint64](nil, comp, 1)
}
