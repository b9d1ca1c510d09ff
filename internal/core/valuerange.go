package core

import "math"

// ValueRange returns the minimum and maximum of data's non-NaN values, the
// range a value-range-relative bound (e_abs = ε·(max−min)) and the
// fixed-ratio search are resolved against. Both results are NaN when data
// holds no non-NaN value (empty or all NaN). ±Inf values count; which zero
// is returned when ±0 tie for an extreme is unspecified, but max−min is not
// affected by it.
//
// The scan is the dispatched Stats kernel, the same min/max loop every
// block runs, on the caller's goroutine. The kernel seeds its accumulators
// with the first value, and a NaN seed would stick, so the leading NaNs are
// skipped first; NaNs after the seed never win a compare.
func ValueRange[T Float](data []T) (mn, mx T) {
	i := 0
	for i < len(data) && data[i] != data[i] {
		i++
	}
	if i == len(data) {
		return T(math.NaN()), T(math.NaN())
	}
	mn, mx, _ = statsKernel(data[i:])
	return mn, mx
}
