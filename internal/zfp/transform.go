// Package zfp implements a fixed-accuracy error-bounded lossy compressor
// modeled on ZFP (Lindstrom, TVCG 2014), the second baseline of the SZx
// paper: values are grouped into 4^d blocks, aligned to a common exponent
// (block floating point), decorrelated with ZFP's integer lifting transform,
// reordered by total sequency, converted to negabinary, and entropy-coded
// one bit plane at a time with group testing. The transform's many shift/add
// stages and the per-bit-plane coding loop are the "masses of
// matrix-multiplication-like operations" the SZx paper contrasts against.
package zfp

// fwdLift applies ZFP's forward decorrelating lifting step to four values
// at stride s. It approximates the orthogonal transform
//
//	       ( 4  4  4  4)
//	1/16 * ( 5  1 -1 -5)
//	       (-4  4  4 -4)
//	       (-2  6 -6  2)
//
// using only additions, subtractions, and arithmetic shifts.
func fwdLift[I coeff](p []I, off, s int) {
	x := p[off]
	y := p[off+s]
	z := p[off+2*s]
	w := p[off+3*s]

	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1

	p[off] = x
	p[off+s] = y
	p[off+2*s] = z
	p[off+3*s] = w
}

// invLift inverts fwdLift (up to the low-order bits the forward shifts
// discard, which is part of ZFP's controlled loss).
func invLift[I coeff](p []I, off, s int) {
	x := p[off]
	y := p[off+s]
	z := p[off+2*s]
	w := p[off+3*s]

	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w

	p[off] = x
	p[off+s] = y
	p[off+2*s] = z
	p[off+3*s] = w
}

// fwdXform applies the forward transform along every dimension of a block.
func fwdXform[I coeff](block []I, dims int) {
	switch dims {
	case 1:
		fwdLift(block, 0, 1)
	case 2:
		for y := 0; y < 4; y++ { // rows
			fwdLift(block, 4*y, 1)
		}
		for x := 0; x < 4; x++ { // columns
			fwdLift(block, x, 4)
		}
	case 3:
		for z := 0; z < 4; z++ {
			for y := 0; y < 4; y++ {
				fwdLift(block, 16*z+4*y, 1)
			}
		}
		for z := 0; z < 4; z++ {
			for x := 0; x < 4; x++ {
				fwdLift(block, 16*z+x, 4)
			}
		}
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				fwdLift(block, 4*y+x, 16)
			}
		}
	}
}

// invXform applies the inverse transform (reverse dimension order).
func invXform[I coeff](block []I, dims int) {
	switch dims {
	case 1:
		invLift(block, 0, 1)
	case 2:
		for x := 0; x < 4; x++ {
			invLift(block, x, 4)
		}
		for y := 0; y < 4; y++ {
			invLift(block, 4*y, 1)
		}
	case 3:
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				invLift(block, 4*y+x, 16)
			}
		}
		for z := 0; z < 4; z++ {
			for x := 0; x < 4; x++ {
				invLift(block, 16*z+x, 4)
			}
		}
		for z := 0; z < 4; z++ {
			for y := 0; y < 4; y++ {
				invLift(block, 16*z+4*y, 1)
			}
		}
	}
}

// perm2 orders 2-D coefficients by total sequency (i+j), ties broken
// row-major, matching ZFP's PERM_2.
var perm2 = buildPerm(2)

// perm3 orders 3-D coefficients by total sequency (i+j+k).
var perm3 = buildPerm(3)

// perm1 is the identity for 1-D blocks.
var perm1 = buildPerm(1)

func buildPerm(dims int) []int {
	size := 1 << uint(2*dims) // 4^dims
	idx := make([]int, size)
	for i := range idx {
		idx[i] = i
	}
	deg := func(i int) int {
		d := 0
		for k := 0; k < dims; k++ {
			d += (i >> uint(2*k)) & 3
		}
		return d
	}
	// Stable insertion sort by (degree, index): small fixed sizes.
	for i := 1; i < size; i++ {
		v := idx[i]
		j := i - 1
		for j >= 0 && deg(idx[j]) > deg(v) {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = v
	}
	return idx
}

func perm(dims int) []int {
	switch dims {
	case 1:
		return perm1
	case 2:
		return perm2
	default:
		return perm3
	}
}
