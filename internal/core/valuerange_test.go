package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernels"
)

// minMaxOracle is the scalar loop plan resolution ran before ValueRange,
// kept verbatim as the oracle. It seeds both results with data[0], so a
// leading NaN would stick; oracleRange feeds it the non-NaN values only.
func minMaxOracle[T Float](data []T) (mn, mx T) {
	mn, mx = data[0], data[0]
	for _, v := range data[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// oracleRange is the range ValueRange must return: the oracle loop over the
// non-NaN values, and ok = false when there are none.
func oracleRange[T Float](data []T) (mn, mx T, ok bool) {
	var vals []T
	for _, v := range data {
		if v == v {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, 0, false
	}
	mn, mx = minMaxOracle(vals)
	return mn, mx, true
}

// TestValueRange checks ValueRange against the oracle for both element
// types and every kernel set. Shapes put NaNs where the Stats kernel's seed
// would otherwise land (data[0], a long leading run), at every vector lane
// and block start, fill a run of blocks with NaN, and mix in ±Inf and ±0
// ties.
func TestValueRange(t *testing.T) {
	for _, name := range kernels.Available() {
		restore, err := kernels.SetActiveForTesting(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name+"/f32", func(t *testing.T) { checkValueRange[float32](t) })
		t.Run(name+"/f64", func(t *testing.T) { checkValueRange[float64](t) })
		restore()
	}
}

func checkValueRange[T Float](t *testing.T) {
	nan, inf := T(math.NaN()), T(math.Inf(1))
	negZero := T(math.Copysign(0, -1))
	rng := rand.New(rand.NewSource(1))
	// Lengths around the float32 kernel's 16-value step, and 40 blocks
	// plus a ragged tail.
	for _, n := range []int{1, 15, 16, 17, 40*DefaultBlockSize + 37} {
		run := 8 * DefaultBlockSize // the NaN run of "nan-blocks"
		random := func() []T {
			d := make([]T, n)
			for i := range d {
				d[i] = T(rng.NormFloat64() * 1e3)
			}
			return d
		}
		for _, shape := range []struct {
			name string
			gen  func() []T
		}{
			{"finite", random},
			{"nan-first", func() []T { d := random(); d[0] = nan; return d }},
			{"nan-block-starts", func() []T { d := random(); setEvery(d, 0, DefaultBlockSize, nan); return d }},
			{"nan-lanes", func() []T { d := random(); setEvery(d, 3, 7, nan); return d }},
			{"nan-blocks", func() []T {
				d := random()
				for i := min(run, n-1); i < min(2*run, n); i++ {
					d[i] = nan
				}
				return d
			}},
			{"nan-all", func() []T { d := random(); setEvery(d, 0, 1, nan); return d }},
			{"nan-all-but-last", func() []T { d := random(); setEvery(d[:n-1], 0, 1, nan); return d }},
			{"inf", func() []T {
				d := random()
				d[rng.Intn(n)] = inf
				d[rng.Intn(n)] = -inf
				return d
			}},
			{"zero-min", func() []T { // values +0, -0, 5
				d := make([]T, n)
				for i := range d {
					d[i] = T(5 * rng.Intn(2))
				}
				setEvery(d, 1, 3, negZero)
				return d
			}},
			{"zero-max", func() []T { // values +0, -0, -5
				d := make([]T, n)
				for i := range d {
					d[i] = T(-5 * rng.Intn(2))
				}
				setEvery(d, 2, 3, negZero)
				return d
			}},
		} {
			data := shape.gen()
			label := fmt.Sprintf("n=%d %s", n, shape.name)
			mn, mx := ValueRange(data)
			omn, omx, ok := oracleRange(data)
			if !ok {
				if mn == mn || mx == mx {
					t.Errorf("%s: got (%v, %v), want NaN for no non-NaN values", label, mn, mx)
				}
				continue
			}
			// Which zero wins a ±0 tie is unspecified; == treats the two
			// alike, and so does max−min. (Inf−Inf is NaN, hence the NaN
			// case: the only non-NaN values are one infinity.)
			got, want := float64(mx)-float64(mn), float64(omx)-float64(omn)
			if mn != omn || mx != omx || !(got == want || got != got && want != want) {
				t.Errorf("%s: got (%v, %v) range %v, want (%v, %v) range %v",
					label, mn, mx, got, omn, omx, want)
			}
		}
	}
}

// setEvery sets d[i] = v for every i ≡ from (mod step).
func setEvery[T Float](d []T, from, step int, v T) {
	for i := from; i < len(d); i += step {
		d[i] = v
	}
}
