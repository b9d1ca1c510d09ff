package sz

// SZ 2.1's second prediction stage: blockwise linear regression
// (Liang et al., IEEE BigData '18). The SZx paper singles this stage out
// when motivating its own design — "SZ 2.1 relies on linear regression
// prediction, which involves masses of multiplications to compute the
// coefficients" — so the baseline implements it faithfully: the data is
// cut into small blocks (6x6x6 in 3-D, 12x12 in 2-D, 128 in 1-D), a
// least-squares hyperplane is fitted per block, and each block chooses
// between the regression predictor and a block-local Lorenzo predictor by
// comparing their prediction errors. Quantization, Huffman, and the
// DEFLATE pass are shared with the Lorenzo-only path.
//
// Unlike the original (which lets Lorenzo reach into neighbouring blocks),
// blocks here are fully independent: Lorenzo sees zeros outside the block.
// This costs a little ratio on the block borders and keeps every block
// decodable in isolation.

import (
	"encoding/binary"
	"math"
)

// Predictor selects the prediction stage for Compress.
type Predictor byte

const (
	// PredLorenzo is the classic SZ 1.4 global Lorenzo predictor.
	PredLorenzo Predictor = 0
	// PredRegression fits a least-squares hyperplane per block.
	PredRegression Predictor = 1
	// PredAuto chooses per block between regression and block-local
	// Lorenzo, as SZ 2.1 does.
	PredAuto Predictor = 2
)

const magicReg = "SZ2R"

// regBlockEdge returns the per-axis block edge for the regression layout.
func regBlockEdge(ndims int) int {
	switch ndims {
	case 1:
		return 128
	case 2:
		return 12
	default:
		return 6
	}
}

// blockIter walks the block grid in row-major order, yielding the origin
// and extent of each block. dims is padded conceptually; extents are
// clipped at the edges.
func blockIter(dims []int, edge int, visit func(origin, ext []int)) {
	nd := len(dims)
	origin := make([]int, nd)
	ext := make([]int, nd)
	var rec func(axis int)
	rec = func(axis int) {
		if axis == nd {
			for d := 0; d < nd; d++ {
				e := edge
				if origin[d]+e > dims[d] {
					e = dims[d] - origin[d]
				}
				ext[d] = e
			}
			visit(origin, ext)
			return
		}
		for origin[axis] = 0; origin[axis] < dims[axis]; origin[axis] += edge {
			rec(axis + 1)
		}
		origin[axis] = 0
	}
	rec(0)
}

// strides returns row-major strides for dims.
func strides(dims []int) []int {
	out := make([]int, len(dims))
	s := 1
	for d := len(dims) - 1; d >= 0; d-- {
		out[d] = s
		s *= dims[d]
	}
	return out
}

// fitPlane computes the least-squares hyperplane over a block:
// f(x) = c[0] + Σ_d c[d+1]*x_d, with x_d the in-block coordinate.
// This is the multiplication-heavy stage the paper refers to.
func fitPlane(data []float32, str []int, base int, ext []int) []float32 {
	nd := len(ext)
	n := 1
	for _, e := range ext {
		n *= e
	}
	// Per-axis centered first moments: num_d = Σ v*(x_d - mean_d).
	num := make([]float64, nd)
	den := make([]float64, nd)
	mean := make([]float64, nd)
	for d := 0; d < nd; d++ {
		mean[d] = float64(ext[d]-1) / 2
		// Σ (x-mean)^2 over the whole block = n/ext_d * Σ_x (x-mean)^2.
		var s float64
		for x := 0; x < ext[d]; x++ {
			dx := float64(x) - mean[d]
			s += dx * dx
		}
		den[d] = s * float64(n) / float64(ext[d])
	}
	var sum float64
	idx := make([]int, nd)
	for {
		off := base
		for d := 0; d < nd; d++ {
			off += idx[d] * str[d]
		}
		v := float64(data[off])
		sum += v
		for d := 0; d < nd; d++ {
			num[d] += v * (float64(idx[d]) - mean[d])
		}
		// Advance.
		d := nd - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < ext[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			break
		}
	}
	coeff := make([]float32, nd+1)
	c0 := sum / float64(n)
	for d := 0; d < nd; d++ {
		if den[d] > 0 {
			slope := num[d] / den[d]
			coeff[d+1] = float32(slope)
			c0 -= slope * mean[d]
		}
	}
	coeff[0] = float32(c0)
	return coeff
}

// planeAt evaluates the fitted plane at in-block coordinates.
func planeAt(coeff []float32, idx []int) float64 {
	p := float64(coeff[0])
	for d := range idx {
		p += float64(coeff[d+1]) * float64(idx[d])
	}
	return p
}

// blockSAE estimates both predictors' absolute prediction error over a
// block (regression vs block-local Lorenzo on the original data), the
// per-block selection criterion of SZ 2.1.
func blockSAE(data []float32, str []int, base int, ext []int, coeff []float32) (saeReg, saeLor float64) {
	nd := len(ext)
	idx := make([]int, nd)
	at := func(delta []int) float64 {
		off := base
		for d := 0; d < nd; d++ {
			x := idx[d] + delta[d]
			if x < 0 {
				return 0
			}
			off += x * str[d]
		}
		return float64(data[off])
	}
	deltas := lorenzoDeltas(nd)
	for {
		off := base
		for d := 0; d < nd; d++ {
			off += idx[d] * str[d]
		}
		v := float64(data[off])
		saeReg += math.Abs(v - planeAt(coeff, idx))
		var pred float64
		for _, dl := range deltas {
			pred += float64(dl.sign) * at(dl.off)
		}
		saeLor += math.Abs(v - pred)

		d := nd - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < ext[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			break
		}
	}
	return saeReg, saeLor
}

// lorenzoDelta is one term of the n-dimensional Lorenzo predictor.
type lorenzoDelta struct {
	off  []int
	sign int
}

// lorenzoDeltas enumerates the 2^nd - 1 Lorenzo terms with inclusion-
// exclusion signs.
func lorenzoDeltas(nd int) []lorenzoDelta {
	var out []lorenzoDelta
	for mask := 1; mask < 1<<uint(nd); mask++ {
		off := make([]int, nd)
		bits := 0
		for d := 0; d < nd; d++ {
			if mask&(1<<uint(d)) != 0 {
				off[d] = -1
				bits++
			}
		}
		sign := 1
		if bits%2 == 0 {
			sign = -1
		}
		out = append(out, lorenzoDelta{off: off, sign: sign})
	}
	return out
}

// compressRegression is the SZ 2.1-style blockwise path shared by
// PredRegression and PredAuto.
func compressRegression(data []float32, dims []int, errBound float64, capacity int, auto bool) ([]byte, error) {
	nd := len(dims)
	edge := regBlockEdge(nd)
	str := strides(dims)
	radius := capacity / 2
	deltas := lorenzoDeltas(nd)

	var codes []int
	var unpred []float32
	var coeffs []float32
	var predBits []byte // 1 bit per block, 1 = regression
	recon := make([]float32, len(data))
	blockCount := 0

	blockIter(dims, edge, func(origin, ext []int) {
		base := 0
		for d := 0; d < nd; d++ {
			base += origin[d] * str[d]
		}
		coeff := fitPlane(data, str, base, ext)
		useReg := true
		if auto {
			saeReg, saeLor := blockSAE(data, str, base, ext, coeff)
			useReg = saeReg <= saeLor
		}
		if blockCount%8 == 0 {
			predBits = append(predBits, 0)
		}
		if useReg {
			predBits[blockCount/8] |= 1 << uint(blockCount%8)
			coeffs = append(coeffs, coeff...)
		}
		blockCount++

		idx := make([]int, nd)
		reconAt := func(delta []int) float64 {
			off := base
			for d := 0; d < nd; d++ {
				x := idx[d] + delta[d]
				if x < 0 {
					return 0
				}
				off += x * str[d]
			}
			return float64(recon[off])
		}
		for {
			off := base
			for d := 0; d < nd; d++ {
				off += idx[d] * str[d]
			}
			var pred float64
			if useReg {
				pred = planeAt(coeff, idx)
			} else {
				for _, dl := range deltas {
					pred += float64(dl.sign) * reconAt(dl.off)
				}
			}
			dv := float64(data[off])
			diff := dv - pred
			q := int(math.Floor(diff/(2*errBound) + 0.5))
			stored := false
			if q > -radius+1 && q < radius {
				rec := float32(pred + float64(q)*2*errBound)
				if math.Abs(float64(rec)-dv) <= errBound {
					codes = append(codes, q+radius)
					recon[off] = rec
					stored = true
				}
			}
			if !stored {
				codes = append(codes, 0)
				unpred = append(unpred, data[off])
				recon[off] = data[off]
			}

			d := nd - 1
			for ; d >= 0; d-- {
				idx[d]++
				if idx[d] < ext[d] {
					break
				}
				idx[d] = 0
			}
			if d < 0 {
				break
			}
		}
	})

	head := binary.LittleEndian.AppendUint32(nil, uint32(len(coeffs)))
	head = append(head, predBits...)
	head = appendValues(head, coeffs)
	return appendStream(magicReg, errBound, capacity, dims, head, codes, unpred)
}

// decompressRegression reverses compressRegression.
func decompressRegression(comp []byte) ([]float32, []int, error) {
	e, pos, err := readEnvelope(comp, magicReg, 4)
	if err != nil {
		return nil, nil, err
	}
	dims, nd, errBound := e.dims, len(e.dims), e.errBound
	nCoeff := int(binary.LittleEndian.Uint32(comp[pos:]))
	pos += 4

	edge := regBlockEdge(nd)
	nBlocks := 1
	for _, d := range dims {
		nBlocks *= (d + edge - 1) / edge
	}
	predLen := (nBlocks + 7) / 8
	if nCoeff < 0 || nCoeff > (nd+1)*nBlocks || len(comp) < pos+predLen+4*nCoeff {
		return nil, nil, ErrCorrupt
	}
	predBits := comp[pos : pos+predLen]
	coeffs := readValues[float32](comp[pos+predLen:], nCoeff)
	codes, unpred, err := readPayload[float32](comp, pos+predLen+4*nCoeff, e)
	if err != nil {
		return nil, nil, err
	}

	str := strides(dims)
	radius := e.capacity / 2
	deltas := lorenzoDeltas(nd)
	recon := make([]float32, e.n)
	ci := 0 // code index
	ui := 0
	cf := 0 // coefficient index
	blockCount := 0
	bad := false

	blockIter(dims, edge, func(origin, ext []int) {
		if bad {
			return
		}
		base := 0
		for d := 0; d < nd; d++ {
			base += origin[d] * str[d]
		}
		useReg := predBits[blockCount/8]&(1<<uint(blockCount%8)) != 0
		blockCount++
		var coeff []float32
		if useReg {
			if cf+nd+1 > len(coeffs) {
				bad = true
				return
			}
			coeff = coeffs[cf : cf+nd+1]
			cf += nd + 1
		}

		idx := make([]int, nd)
		reconAt := func(delta []int) float64 {
			off := base
			for d := 0; d < nd; d++ {
				x := idx[d] + delta[d]
				if x < 0 {
					return 0
				}
				off += x * str[d]
			}
			return float64(recon[off])
		}
		for {
			off := base
			for d := 0; d < nd; d++ {
				off += idx[d] * str[d]
			}
			var pred float64
			if useReg {
				pred = planeAt(coeff, idx)
			} else {
				for _, dl := range deltas {
					pred += float64(dl.sign) * reconAt(dl.off)
				}
			}
			c := codes[ci]
			ci++
			if c == 0 {
				if ui >= len(unpred) {
					bad = true
					return
				}
				recon[off] = unpred[ui]
				ui++
			} else {
				recon[off] = float32(pred + float64(c-radius)*2*errBound)
			}

			d := nd - 1
			for ; d >= 0; d-- {
				idx[d]++
				if idx[d] < ext[d] {
					break
				}
				idx[d] = 0
			}
			if d < 0 {
				break
			}
		}
	})
	if bad {
		return nil, nil, ErrCorrupt
	}
	return recon, dims, nil
}
