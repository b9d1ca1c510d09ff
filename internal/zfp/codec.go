package zfp

import (
	"math"

	"repro/internal/bitio"
	"repro/internal/ieee"
)

// coeff is the signed block-floating-point coefficient of one width: int32
// for float32 streams, int64 for float64 streams. Every generic function
// pairs a Float with the coeff and the ieee.Word of the same width; the
// exported entry points guarantee the pairing.
type coeff interface{ ~int32 | ~int64 }

// format holds one element width's stream constants. float32 streams carry
// int32 coefficients and a 9-bit block exponent, float64 streams int64
// coefficients and a 12-bit one, as in the original's two instantiations.
// (Three fields of at most 32 bytes keep it in registers, so every
// instantiation folds the constants.)
type format struct {
	magic   string
	intPrec int // bit planes per coefficient
	ebits   int // stored exponent width: emax+emaxBias in [0, 2^ebits)
}

func formatOf[F ieee.Float]() format {
	if ieee.Width[F]() == 4 {
		return format{magic: "ZFPG", intPrec: 32, ebits: 9}
	}
	return format{magic: "ZFPH", intPrec: 64, ebits: 12}
}

// emaxBias centres the stored block exponent: 255 for float32, 2047 for
// float64.
func (f format) emaxBias() int { return 1<<(f.ebits-1) - 1 }

// int2negabinary converts two's complement to negabinary, so that small
// magnitudes of either sign have their significant bits in the low planes.
func int2negabinary[U ieee.Word, I coeff](x I) U {
	mask := ^U(0) / 3 * 2 // 0xaaaa...
	return (U(x) + mask) ^ mask
}

// negabinary2int inverts int2negabinary.
func negabinary2int[I coeff, U ieee.Word](u U) I {
	mask := ^U(0) / 3 * 2
	return I((u ^ mask) - mask)
}

// precision computes how many bit planes must be kept for a block with
// maximum exponent emax so that the reconstruction error stays below
// 2^minexp; the 2*(dims+1) slack absorbs the transform's range expansion
// and the inverse transform's rounding (ZFP's accuracy-mode formula).
func (f format) precision(emax, minexp, dims int) int {
	p := emax - minexp + 2*(dims+1)
	if p < 0 {
		p = 0
	}
	if p > f.intPrec {
		p = f.intPrec
	}
	return p
}

// blockEmax returns the exponent e with max|block| < 2^e, or minInt if the
// block is all zeros or non-finite values were clamped to zero.
func blockEmax[F ieee.Float](block []F) (int, bool) {
	m := float64(0)
	for _, v := range block {
		a := math.Abs(float64(v))
		if a > m {
			m = a
		}
	}
	if m == 0 || math.IsInf(m, 0) || math.IsNaN(m) {
		return 0, false
	}
	_, e := math.Frexp(m) // m = f * 2^e, f in [0.5, 1)
	return e, true
}

// encodeBlock writes one 4^dims block: a significance bit, the block
// exponent, and the group-tested bit planes of the negabinary coefficients.
func encodeBlock[F ieee.Float, I coeff, U ieee.Word](w *bitio.Writer, block []F, fblock []I, dims, minexp int) {
	f := formatOf[F]()
	size := 1 << uint(2*dims)
	emax, ok := blockEmax(block[:size])
	if !ok || f.precision(emax, minexp, dims) == 0 {
		w.WriteBit(0) // insignificant block: decodes to all zeros
		return
	}
	w.WriteBit(1)
	w.WriteBitsLSB(uint64(emax+f.emaxBias()), uint(f.ebits))

	// Block floating point: scale into intPrec-2-bit integers.
	scale := math.Ldexp(1, f.intPrec-2-emax)
	for i := 0; i < size; i++ {
		fblock[i] = I(float64(block[i]) * scale)
	}
	fwdXform(fblock, dims)

	// Reorder by sequency and convert to negabinary.
	pm := perm(dims)
	var u [64]U
	for i := 0; i < size; i++ {
		u[i] = int2negabinary[U](fblock[pm[i]])
	}

	// Group-tested bit-plane coding (ZFP's encode_ints): for each plane,
	// the bits of already-significant coefficients are written verbatim;
	// the rest are run-length coded, with a group-test bit announcing
	// whether any further coefficient becomes significant in this plane.
	kmin := f.intPrec - f.precision(emax, minexp, dims)
	n := 0
	for k := f.intPrec - 1; k >= kmin; k-- {
		// Extract bit plane k (bit i = coefficient i).
		var x uint64
		for i := 0; i < size; i++ {
			x |= uint64((u[i]>>uint(k))&1) << uint(i)
		}
		// First n coefficients: verbatim.
		w.WriteBitsLSB(x, uint(n))
		x >>= uint(n)
		// Group testing for newly significant coefficients. cur walks the
		// remaining coefficients; n records one past the last 1 consumed,
		// which is the verbatim count for the next plane.
		for cur := n; cur < size; {
			if x == 0 {
				w.WriteBit(0)
				break
			}
			w.WriteBit(1)
			for cur < size-1 {
				b := uint(x & 1)
				w.WriteBit(b)
				if b != 0 {
					break
				}
				x >>= 1
				cur++
			}
			// Consume the terminating coefficient: either its 1 bit was
			// just written, or it is the last one and its 1 is implied.
			x >>= 1
			cur++
			n = cur
		}
	}
}

// decodeBlock reads one block written by encodeBlock into block[:4^dims].
func decodeBlock[F ieee.Float, I coeff, U ieee.Word](r *bitio.Reader, block []F, fblock []I, dims, minexp int) error {
	f := formatOf[F]()
	size := 1 << uint(2*dims)
	sig, err := r.ReadBit()
	if err != nil {
		return err
	}
	if sig == 0 {
		for i := 0; i < size; i++ {
			block[i] = 0
		}
		return nil
	}
	ev, err := r.ReadBitsLSB(uint(f.ebits))
	if err != nil {
		return err
	}
	emax := int(ev) - f.emaxBias()

	// The array starts zeroed, but this loop is what proves size <= 64 to
	// the compiler: without it the plane-deposit loop below regains a
	// bounds check on u[i].
	var u [64]U
	for i := range u[:size] {
		u[i] = 0
	}
	kmin := f.intPrec - f.precision(emax, minexp, dims)
	n := 0
	for k := f.intPrec - 1; k >= kmin; k-- {
		// Verbatim bits of already-significant coefficients.
		x, err := r.ReadBitsLSB(uint(n))
		if err != nil {
			return err
		}
		// Group testing, mirroring encodeBlock exactly.
		for cur := n; cur < size; {
			g, err := r.ReadBit()
			if err != nil {
				return err
			}
			if g == 0 {
				break
			}
			for cur < size-1 {
				b, err := r.ReadBit()
				if err != nil {
					return err
				}
				if b != 0 {
					break
				}
				cur++
			}
			x |= 1 << uint(cur)
			cur++
			n = cur
		}
		// Deposit plane k.
		for i := 0; i < size; i++ {
			u[i] |= U((x>>uint(i))&1) << uint(k)
		}
	}

	pm := perm(dims)
	for i := 0; i < size; i++ {
		fblock[pm[i]] = negabinary2int[I](u[i])
	}
	invXform(fblock, dims)

	scale := math.Ldexp(1, emax-(f.intPrec-2))
	for i := 0; i < size; i++ {
		block[i] = F(float64(fblock[i]) * scale)
	}
	return nil
}
