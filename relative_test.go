package szx

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
)

// relativeCase is one input of TestRelativeFusedMatchesSerial, built as
// float64 values and narrowed for the float32 run.
type relativeCase struct {
	name string
	data []float64
}

// relativeCases builds the inputs whose value range is hardest to reduce
// per block: NaN runs shorter and longer than one 8-block chunk, opening
// the data and opening a chunk; NaNs inside blocks that open with a value;
// a NaN at every block start; all NaN, and all NaN but the last value; one
// ±Inf; ±0 ties at an extreme; flat data; plain data. bs is the block size
// the chunk and block positions are measured in.
func relativeCases(rng *rand.Rand, n, bs int) []relativeCase {
	base := func() []float64 {
		d := make([]float64, n)
		v := rng.NormFloat64()
		for i := range d {
			v += 0.3 * (rng.Float64() - 0.5)
			d[i] = v + 1e-9*float64(i%7)
		}
		return d
	}
	nan := math.NaN()
	chunkVals := 8 * bs
	fill := func(d []float64, lo, hi int, v float64) []float64 {
		for i := max(lo, 0); i < min(hi, len(d)); i++ {
			d[i] = v
		}
		return d
	}
	short := 1 + rng.Intn(chunkVals-1)
	long := chunkVals + 1 + rng.Intn(2*chunkVals)
	at := chunkVals * rng.Intn(n/chunkVals+1)
	var cs []relativeCase
	add := func(name string, d []float64) { cs = append(cs, relativeCase{name, d}) }
	add("plain", base())
	add("leading short NaN run", fill(base(), 0, short, nan))
	add("leading long NaN run", fill(base(), 0, long, nan))
	add("short NaN run at a chunk", fill(base(), at, at+short, nan))
	add("long NaN run at a chunk", fill(base(), at, at+long, nan))
	add("NaN run inside a block", fill(base(), at+1+rng.Intn(bs), at+bs+short, nan))
	d := base()
	for i := 0; i < 4; i++ {
		d[rng.Intn(n)] = nan
	}
	add("scattered NaNs", d)
	d = base()
	for i := 0; i < n; i += bs {
		d[i] = nan
	}
	add("NaN at every block start", d)
	add("all NaN", fill(base(), 0, n, nan))
	add("all NaN but the last", fill(base(), 0, n-1, nan))
	d = base()
	d[rng.Intn(n)] = math.Inf(1)
	add("one +Inf", d)
	d = base()
	d[rng.Intn(n)] = math.Inf(-1)
	add("one -Inf", d)
	// ±0 ties at the maximum: every value at most zero, with both zeros
	// present, so which zero wins the max depends on the scan order.
	d = base()
	for i := range d {
		d[i] = -math.Abs(d[i])
	}
	d[rng.Intn(n)], d[rng.Intn(n)] = 0, math.Copysign(0, -1)
	add("±0 ties at the max", d)
	add("flat", fill(base(), 0, n, 3.25))
	add("flat with NaNs", fill(fill(base(), 0, n, -1.5), at, at+short, nan))
	return cs
}

// TestRelativeFusedMatchesSerial checks the parallel engine's fused
// relative-bound path, which resolves the bound from its own per-block
// stats, against the serial path, which scans the range with ValueRange
// first. At Workers 2, 3 and 7 (ParallelMinBytes = 0, so small inputs
// reach the engine), every stream must equal the serial one-shot byte for
// byte, every error must equal the serial one, and every header bound must
// equal ResolvePlan's. Block size -1 and 5000 are invalid: a degenerate
// input must still fail on its range first.
func TestRelativeFusedMatchesSerial(t *testing.T) {
	saved := core.ParallelMinBytes
	core.ParallelMinBytes = 0
	defer func() { core.ParallelMinBytes = saved }()

	rng := rand.New(rand.NewSource(27))
	lengths := []int{1, 2, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025, 6000}
	for i := 0; i < 6; i++ {
		lengths = append(lengths, 1+rng.Intn(6000))
	}
	eps := []float64{1e-3, 1e-3, 0.25, 5e-324, 1e308}
	for _, n := range lengths {
		for _, bs := range []int{0, 8, -1, 5000} {
			posBS := bs
			if bs <= 0 || bs > MaxBlockSize {
				posBS = DefaultBlockSize
			}
			for _, c := range relativeCases(rng, n, posBS) {
				opt := Options{ErrorBound: eps[rng.Intn(len(eps))], Mode: BoundRelative, BlockSize: bs}
				name := fmt.Sprintf("n=%d/bs=%d/%s/eps=%g", n, bs, c.name, opt.ErrorBound)
				f32 := make([]float32, n)
				for i, v := range c.data {
					f32[i] = float32(v)
				}
				checkFusedAgainstSerial(t, name+"/f32", f32, opt)
				checkFusedAgainstSerial(t, name+"/f64", c.data, opt)
			}
		}
	}
}

func checkFusedAgainstSerial[T Float](t *testing.T, name string, data []T, opt Options) {
	t.Helper()
	want, werr := CompressInto(nil, data, opt)
	plan, perr := ResolvePlan(data, opt)
	for _, w := range []int{2, 3, 7} {
		popt := opt
		popt.Workers = w
		got, err := CompressInto(nil, data, popt)
		if err != werr {
			t.Fatalf("%s w=%d: error %v, serial %v", name, w, err, werr)
		}
		if err != nil {
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s w=%d: stream differs from the serial one (%d vs %d bytes)", name, w, len(got), len(want))
		}
		h, err := Info(got)
		if err != nil {
			t.Fatalf("%s w=%d: %v", name, w, err)
		}
		if perr != nil || h.ErrBound != plan.Bound {
			t.Fatalf("%s w=%d: header bound %g, ResolvePlan %g (%v)", name, w, h.ErrBound, plan.Bound, perr)
		}
	}
}

// TestRelativeCodecTablePooled: the per-block stats table of the fused
// relative path lives in the engine's pooled per-call state, so a warm
// relative-bound Codec allocates far less per call than the table's size.
// The input's table is 8192 blocks of 24 bytes (μ bits, radius, NaN flag).
func TestRelativeCodecTablePooled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled items at random under -race")
	}
	saved := core.ParallelMinBytes
	core.ParallelMinBytes = 0
	defer func() { core.ParallelMinBytes = saved }()

	const bs, blocks = 8, 8192
	const tableBytes = 24 * blocks
	data := testField(bs*blocks, 31)
	c := NewCodec[float32](Options{ErrorBound: 1e-3, Mode: BoundRelative, BlockSize: bs, Workers: 2})
	// Warm until the shard scratches in the engine's pooled per-call state,
	// one per participant, have grown to the largest share of the payload a
	// participant claims; the shares vary call to call.
	const calls = 20
	for i := 0; i < 200; i++ {
		if _, err := c.Compress(data); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := c.Compress(data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / calls
	if perOp >= tableBytes/4 {
		t.Errorf("warm relative Codec allocates %d B per call; the stats table alone is %d B", perOp, tableBytes)
	}
	t.Logf("%d B allocated per call (stats table %d B)", perOp, tableBytes)
}
