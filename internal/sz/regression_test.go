package sz

import (
	"math"
	"math/rand"
	"testing"
)

// genGradient builds data that a plane fits perfectly within blocks.
func genGradient(h, w int) []float32 {
	out := make([]float32, h*w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out[y*w+x] = float32(3*x - 2*y + 10)
		}
	}
	return out
}

func TestRegressionRoundTrip(t *testing.T) {
	for _, pred := range []Predictor{PredRegression, PredAuto} {
		for _, dims := range [][]int{{900}, {30, 30}, {10, 9, 10}, {2, 5, 9, 10}} {
			data := as[float32](gen3D(1, 30, 30, int64(len(dims))))
			for _, e := range []float64{1e-2, 1e-4} {
				comp, err := Compress(data, dims, e, Options{Predictor: pred})
				if err != nil {
					t.Fatalf("%v %v: %v", pred, dims, err)
				}
				dec, gotDims, err := Decompress(comp)
				if err != nil {
					t.Fatalf("%v %v: %v", pred, dims, err)
				}
				if len(gotDims) != len(dims) {
					t.Fatalf("dims %v", gotDims)
				}
				if got := maxErr(data, dec); got > e {
					t.Errorf("%v %v e=%g: max error %g", pred, dims, e, got)
				}
			}
		}
	}
}

func TestRegressionBeatsLorenzoOnPlanes(t *testing.T) {
	// Piecewise-linear data with additive noise: regression predicts it
	// almost exactly, Lorenzo pays for the noise twice.
	rng := rand.New(rand.NewSource(1))
	const h, w = 120, 120
	data := genGradient(h, w)
	for i := range data {
		data[i] += float32(0.5 * rng.NormFloat64())
	}
	e := 0.01
	cl, err := Compress(data, []int{h, w}, e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compress(data, []int{h, w}, e, Options{Predictor: PredRegression})
	if err != nil {
		t.Fatal(err)
	}
	if len(cr) >= len(cl) {
		t.Errorf("regression (%d B) not smaller than Lorenzo (%d B) on planar data", len(cr), len(cl))
	}
	dec, _, err := Decompress(cr)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxErr(data, dec); got > e {
		t.Errorf("bound violated: %g", got)
	}
}

func TestAutoSelectsPerBlock(t *testing.T) {
	// Left half planar (regression-friendly), right half smooth sine
	// (Lorenzo-friendly): Auto should mix predictors.
	const h, w = 60, 120
	data := make([]float32, h*w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x < w/2 {
				data[y*w+x] = float32(2*x + y)
			} else {
				data[y*w+x] = float32(50 * math.Sin(float64(x)/3) * math.Cos(float64(y)/3))
			}
		}
	}
	comp, err := Compress(data, []int{h, w}, 1e-3, Options{Predictor: PredAuto})
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxErr(data, dec); got > 1e-3 {
		t.Errorf("max error %g", got)
	}
	// Auto must not be (much) worse than the better single predictor.
	onlyL, _ := Compress(data, []int{h, w}, 1e-3, Options{})
	onlyR, _ := Compress(data, []int{h, w}, 1e-3, Options{Predictor: PredRegression})
	best := len(onlyL)
	if len(onlyR) < best {
		best = len(onlyR)
	}
	if len(comp) > best+best/10 {
		t.Errorf("auto %d B much worse than best single %d B", len(comp), best)
	}
}

func TestFitPlaneExact(t *testing.T) {
	// A pure plane must be fitted exactly (up to float rounding).
	const h, w = 12, 12
	data := genGradient(h, w)
	coeff := fitPlane(data, []int{w, 1}, 0, []int{h, w})
	if math.Abs(float64(coeff[0])-10) > 1e-4 ||
		math.Abs(float64(coeff[1])+2) > 1e-4 ||
		math.Abs(float64(coeff[2])-3) > 1e-4 {
		t.Errorf("coeff %v want [10 -2 3]", coeff)
	}
}

func TestFitPlaneDegenerateAxis(t *testing.T) {
	// An axis of extent 1 has zero variance; its slope must be 0.
	data := []float32{5, 6, 7, 8}
	coeff := fitPlane(data, []int{4, 1}, 0, []int{1, 4})
	if coeff[1] != 0 {
		t.Errorf("degenerate axis slope %v", coeff[1])
	}
	if math.Abs(float64(coeff[2])-1) > 1e-5 {
		t.Errorf("slope %v want 1", coeff[2])
	}
}

func TestRegressionCorrupt(t *testing.T) {
	data := as[float32](gen2D(30, 30, 9))
	comp, err := Compress(data, []int{30, 30}, 1e-3, Options{Predictor: PredAuto})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompress(comp[:12]); err == nil {
		t.Error("short stream accepted")
	}
	for i := 0; i < len(comp); i += 13 {
		c := append([]byte(nil), comp...)
		c[i] ^= 0xFF
		_, _, _ = Decompress(c) // must not panic
	}
}

func TestLorenzoDeltas(t *testing.T) {
	// 2-D: pred = a[y-1][x] + a[y][x-1] - a[y-1][x-1].
	ds := lorenzoDeltas(2)
	if len(ds) != 3 {
		t.Fatalf("%d deltas", len(ds))
	}
	signSum := 0
	for _, d := range ds {
		signSum += d.sign
	}
	if signSum != 1 {
		t.Errorf("inclusion-exclusion signs sum to %d, want 1", signSum)
	}
	// 3-D has 7 terms summing to +1.
	ds3 := lorenzoDeltas(3)
	if len(ds3) != 7 {
		t.Fatalf("%d deltas", len(ds3))
	}
}
