// Package telemetry is the runtime observability layer for the SZx codec:
// near-zero-overhead atomic counters, monotonic stage timers, and
// power-of-two-bucket histograms, instrumenting the hot paths in
// internal/core and every public wrapper (streams, archives, temporal
// compression).
//
// The whole subsystem hangs off a single atomic gate: when telemetry is
// disabled (the default), instrumented call sites pay one atomic load per
// codec call — not per block or per value — so the disabled cost is ~1 ns
// per Compress/Decompress and unmeasurable against multi-megabyte payloads
// (A/B: internal/core's BenchmarkCoreTelemetry). When enabled, per-block and
// per-value statistics are tallied into plain (non-atomic) thread-local
// structs and flushed to the shared atomics once per worker per call, so
// the enabled path stays race-free under the parallel engine without
// putting atomics in the per-value loops.
//
// Export surfaces: every exported series is declared once, as a row of the
// registry in prometheus.go, and each surface walks that registry without
// naming an individual metric:
//
//   - [WritePrometheus] emits the Prometheus text exposition format;
//   - [Snap] returns every series keyed as on the Prometheus page
//     (`name{labels}`), plus every histogram by family name;
//   - [PublishExpvar] publishes that snapshot under the expvar key "szx";
//   - [Report] renders one text line per family with a non-zero series;
//   - [Reset] zeroes every row;
//   - [DebugHandler] serves /metrics, /debug/vars, and /debug/pprof.
//
// Adding a metric is one variable and one registry row.
//
// The cmd/szx and cmd/szxbench binaries expose all of this behind opt-in
// -stats and -stats-http flags.
package telemetry

import (
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// on is the package-wide gate. Instrumented hot paths read it once per
// call; everything below it is skipped entirely while disabled.
var on atomic.Bool

// Enable turns metric collection on.
func Enable() { on.Store(true) }

// Disable turns metric collection off. Already-collected values are kept
// (use Reset to clear them).
func Disable() { on.Store(false) }

// Enabled reports whether metric collection is on. Hot paths call this
// once per codec call and skip all instrumentation when it is false.
func Enabled() bool { return on.Load() }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an atomic instantaneous value (queue depth, in-flight count):
// unlike a Counter it goes both ways. The service layer's admission
// controller is the main client.
type Gauge struct{ v atomic.Int64 }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

func (g *Gauge) reset() { g.v.Store(0) }

// histBuckets is the number of power-of-two histogram buckets. Bucket i
// counts observations v with bit length i, i.e. v in [2^(i-1), 2^i);
// bucket 0 counts zeros. An int64 observation has bit length ≤ 63, so 64
// buckets cover the full range with no overflow bucket.
const histBuckets = 64

// Histogram is a power-of-two-bucket histogram of non-negative int64
// observations (negative values clamp to 0). Bucketing by bit length makes
// Observe one shift-free table index — no comparisons, no float math — at
// the cost of coarse (2x) resolution, which is exactly the right trade for
// latency distributions spanning nanoseconds to seconds.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
	// max and exemplar link the histogram's worst observation back to the
	// request that caused it (poor-man's exemplars): ObserveExemplar keeps
	// the trace ID of the current maximum, so "what was the slowest
	// request" is answerable from /debug/requests without full tracing of
	// every request. exemplar always holds a string.
	max      atomic.Int64
	exemplar atomic.Value
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveExemplar records v like Observe and, when v is the largest value
// seen since the last reset, remembers traceID as the histogram's exemplar.
// An empty traceID degrades to a plain Observe. The max/exemplar pair is
// updated with a CAS loop, so two racing maxima keep one of the two IDs —
// either is an honest exemplar.
func (h *Histogram) ObserveExemplar(v int64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	if v < 0 {
		v = 0
	}
	for {
		m := h.max.Load()
		if v < m {
			return
		}
		if h.max.CompareAndSwap(m, v) {
			h.exemplar.Store(traceID)
			return
		}
	}
}

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.max.Store(0)
	h.exemplar.Store("")
}

// Bucket is one non-empty histogram bucket in a snapshot. Le is the
// bucket's inclusive upper bound (2^i for bucket index i).
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Max and
// MaxTraceID surface the exemplar pair recorded by ObserveExemplar: the
// largest observation and the trace it belongs to.
type HistogramSnapshot struct {
	Count      int64    `json:"count"`
	Sum        int64    `json:"sum"`
	Mean       float64  `json:"mean"`
	Max        int64    `json:"max,omitempty"`
	MaxTraceID string   `json:"max_trace_id,omitempty"`
	Buckets    []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram. Only non-empty buckets are materialized.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	if id, ok := h.exemplar.Load().(string); ok {
		s.MaxTraceID = id
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			le := int64(1) << uint(i)
			if i == 0 {
				le = 0
			}
			s.Buckets = append(s.Buckets, Bucket{Le: le, Count: n})
		}
	}
	return s
}

// maxBitLen is the largest observable bit count in a BitHist (a float64
// word is 64 bits).
const maxBitLen = 64

// BitHist is an exact-bucket histogram over small integer values 0..64,
// used for the per-block required-bit-count distribution (the paper's
// Formula 4 output): unlike Histogram's power-of-two buckets, every
// distinct bit count gets its own bucket, because adjacent values (e.g.
// reqLen 17 vs 25) mean very different compression ratios.
type BitHist struct {
	buckets [maxBitLen + 1]atomic.Int64
}

// Observe records one bit count (clamped to 0..64).
func (h *BitHist) Observe(bits int) {
	if bits < 0 {
		bits = 0
	}
	if bits > maxBitLen {
		bits = maxBitLen
	}
	h.buckets[bits].Add(1)
}

// add accumulates a pre-tallied count (used by BlockTally.Flush).
func (h *BitHist) add(bits int, n int64) { h.buckets[bits].Add(n) }

// Snapshot returns the non-zero buckets as a bits→count map.
func (h *BitHist) Snapshot() map[int]int64 {
	m := make(map[int]int64)
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			m[i] = n
		}
	}
	return m
}

// series yields the non-zero buckets as `{bits="N"}` series, the registry
// row form of the distribution.
func (h *BitHist) series(yield func(labels string, v int64) bool) {
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			if !yield(`{bits="`+strconv.Itoa(i)+`"}`, n) {
				return
			}
		}
	}
}

func (h *BitHist) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Timer is a monotonic-clock stage timer. The zero Timer is inert; obtain
// a running one from Start. Call sites gate on Enabled() so the disabled
// path never reads the clock.
type Timer struct{ t0 time.Time }

// Start begins a timing measurement on the monotonic clock.
func Start() Timer { return Timer{t0: time.Now()} }

// Elapsed returns the time since Start.
func (t Timer) Elapsed() time.Duration { return time.Since(t.t0) }

// Stop records the elapsed nanoseconds into h and returns the duration.
func (t Timer) Stop(h *Histogram) time.Duration {
	d := time.Since(t.t0)
	h.Observe(int64(d))
	return d
}
