// Package sz implements a prediction-based error-bounded lossy compressor
// in the style of SZ 2.1 (Tao et al., IPDPS '17; Liang et al., BigData '18),
// the primary baseline of the SZx paper.
//
// The pipeline is the one the paper describes when motivating SZx's design
// constraints: a multidimensional Lorenzo predictor, linear-scale
// quantization with a per-point division (quantization_bin =
// prediction_error/(2*errorBound) + 1/2), canonical Huffman coding of the
// quantization codes, and a final lossless pass (DEFLATE standing in for
// the Zstd stage of SZ 2.1). These are precisely the "expensive operations"
// — divisions, multiplications, Huffman coding — that SZx avoids, so this
// baseline reproduces both the higher compression ratios and the lower
// throughput the paper reports for SZ.
package sz

import (
	"errors"
	"math"

	"repro/internal/ieee"
)

// DefaultCapacity is the quantization-code alphabet size (SZ's default).
const DefaultCapacity = 65536

// Errors returned by the codec.
var (
	ErrBadMagic = errors.New("sz: not an SZ stream")
	ErrCorrupt  = errors.New("sz: corrupt or truncated stream")
	ErrErrBound = errors.New("sz: error bound must be a positive finite number")
	ErrDims     = errors.New("sz: dims must be 1-4 positive values whose product is len(data)")
	ErrOptions  = errors.New("sz: options need an even capacity in [4, 2^22] (or 0) and a predictor the element type supports")
)

// Options configures compression.
type Options struct {
	// Capacity is the quantization alphabet size (0 = DefaultCapacity).
	// Must be an even number in [4, 2^22].
	Capacity int
	// Predictor selects the prediction stage: the default global Lorenzo
	// (SZ 1.4), blockwise regression, or SZ 2.1's per-block automatic
	// choice between the two. Regression and automatic choice are
	// float32-only.
	Predictor Predictor
}

// check validates the arguments every predictor shares and returns the
// capacity in effect. regression reports whether the element type has the
// regression predictor.
func (o Options) check(n int, dims []int, errBound float64, regression bool) (int, error) {
	if !(errBound > 0) || math.IsInf(errBound, 0) {
		return 0, ErrErrBound
	}
	c := o.Capacity
	if c == 0 {
		c = DefaultCapacity
	}
	if c < 4 || c%2 != 0 || c > 1<<22 {
		return 0, ErrOptions
	}
	switch o.Predictor {
	case PredLorenzo:
	case PredRegression, PredAuto:
		if !regression {
			return 0, ErrOptions
		}
	default:
		return 0, ErrOptions
	}
	return c, checkDims(dims, n)
}

// Compress compresses data (row-major, dims slowest-first) under the
// absolute error bound errBound.
func Compress(data []float32, dims []int, errBound float64, opts Options) ([]byte, error) {
	capacity, err := opts.check(len(data), dims, errBound, true)
	if err != nil {
		return nil, err
	}
	if opts.Predictor != PredLorenzo {
		return compressRegression(data, dims, errBound, capacity, opts.Predictor == PredAuto)
	}
	return compress(data, dims, errBound, capacity)
}

// Decompress reconstructs the values and dimensions from a stream produced
// by Compress, dispatching on the stream's predictor family.
func Decompress(comp []byte) ([]float32, []int, error) {
	if len(comp) >= 4 && string(comp[:4]) == magicReg {
		return decompressRegression(comp)
	}
	return decompress[float32](comp)
}

// CompressFloat64 compresses float64 data with the Lorenzo predictor. The
// paper's in-memory motivation (quantum-circuit simulation) compresses
// double-precision state; the pipeline is the float32 one, with 8-byte
// unpredictable values.
func CompressFloat64(data []float64, dims []int, errBound float64, opts Options) ([]byte, error) {
	capacity, err := opts.check(len(data), dims, errBound, false)
	if err != nil {
		return nil, err
	}
	return compress(data, dims, errBound, capacity)
}

// DecompressFloat64 reverses CompressFloat64.
func DecompressFloat64(comp []byte) ([]float64, []int, error) {
	return decompress[float64](comp)
}

// magicOf is the Lorenzo stream magic of F's width.
func magicOf[F ieee.Float]() string {
	if ieee.Width[F]() == 4 {
		return "SZ2G"
	}
	return "SZ2H"
}

// compress is the Lorenzo path: prediction from reconstructed neighbours,
// linear-scale quantization, then the shared entropy stage.
func compress[F ieee.Float](data []F, dims []int, errBound float64, capacity int) ([]byte, error) {
	radius := capacity / 2
	codes := make([]int, len(data))
	recon := make([]F, len(data))
	var unpred []F

	quantize := func(i int, pred float64) {
		d := float64(data[i])
		diff := d - pred
		q := int(math.Floor(diff/(2*errBound) + 0.5))
		if q > -radius+1 && q < radius {
			rec := pred + float64(q)*2*errBound
			if math.Abs(rec-d) <= errBound {
				codes[i] = q + radius
				recon[i] = F(rec)
				// The float32 rounding of the reconstruction must also
				// respect the bound; otherwise fall through to
				// unpredictable. For float64 this repeats the test above.
				if math.Abs(float64(recon[i])-d) <= errBound {
					return
				}
			}
		}
		codes[i] = 0 // unpredictable: stored verbatim
		unpred = append(unpred, data[i])
		recon[i] = data[i]
	}

	walk(dims, recon, quantize)
	return appendStream(magicOf[F](), errBound, capacity, dims, nil, codes, unpred)
}

// decompress reverses compress.
func decompress[F ieee.Float](comp []byte) ([]F, []int, error) {
	e, pos, err := readEnvelope(comp, magicOf[F](), 0)
	if err != nil {
		return nil, nil, err
	}
	codes, unpred, err := readPayload[F](comp, pos, e)
	if err != nil {
		return nil, nil, err
	}

	radius := e.capacity / 2
	errBound := e.errBound
	recon := make([]F, e.n)
	ui := 0
	bad := false
	dequant := func(i int, pred float64) {
		c := codes[i]
		if c == 0 {
			if ui >= len(unpred) {
				bad = true
				return
			}
			recon[i] = unpred[ui]
			ui++
			return
		}
		recon[i] = F(pred + float64(c-radius)*2*errBound)
	}
	walk(e.dims, recon, dequant)
	if bad {
		return nil, nil, ErrCorrupt
	}
	return recon, e.dims, nil
}

func checkDims(dims []int, n int) error {
	if len(dims) < 1 || len(dims) > 4 {
		return ErrDims
	}
	p := 1
	for _, d := range dims {
		if d < 1 {
			return ErrDims
		}
		p *= d
	}
	if p != n {
		return ErrDims
	}
	return nil
}

// walk visits every point in row-major order, handing the visitor the
// linear index and the Lorenzo prediction computed from already-visited
// (reconstructed) neighbours in recon. 4-D data is treated as a stack of
// independent 3-D volumes, as in SZ.
func walk[F ieee.Float](dims []int, recon []F, visit func(i int, pred float64)) {
	switch len(dims) {
	case 1:
		lorenzo1D(dims[0], 0, recon, visit)
	case 2:
		lorenzo2D(dims[0], dims[1], 0, recon, visit)
	case 3:
		lorenzo3D(dims[0], dims[1], dims[2], 0, recon, visit)
	case 4:
		vol := dims[1] * dims[2] * dims[3]
		for s := 0; s < dims[0]; s++ {
			lorenzo3D(dims[1], dims[2], dims[3], s*vol, recon, visit)
		}
	}
}

func lorenzo1D[F ieee.Float](n, base int, r []F, visit func(int, float64)) {
	for i := 0; i < n; i++ {
		pred := 0.0
		if i > 0 {
			pred = float64(r[base+i-1])
		}
		visit(base+i, pred)
	}
}

func lorenzo2D[F ieee.Float](h, w, base int, r []F, visit func(int, float64)) {
	at := func(y, x int) float64 {
		if y < 0 || x < 0 {
			return 0
		}
		return float64(r[base+y*w+x])
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pred := at(y-1, x) + at(y, x-1) - at(y-1, x-1)
			visit(base+y*w+x, pred)
		}
	}
}

func lorenzo3D[F ieee.Float](d, h, w, base int, r []F, visit func(int, float64)) {
	at := func(z, y, x int) float64 {
		if z < 0 || y < 0 || x < 0 {
			return 0
		}
		return float64(r[base+(z*h+y)*w+x])
	}
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				pred := at(z-1, y, x) + at(z, y-1, x) + at(z, y, x-1) -
					at(z-1, y-1, x) - at(z-1, y, x-1) - at(z, y-1, x-1) +
					at(z-1, y-1, x-1)
				visit(base+(z*h+y)*w+x, pred)
			}
		}
	}
}
