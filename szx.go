// Package szx is a pure-Go implementation of SZx, the ultrafast
// error-bounded lossy compressor for scientific floating-point datasets
// introduced by Yu et al. at HPDC 2022.
//
// SZx targets use cases where compression speed dominates: in-memory
// compression for large working sets, online instrument data reduction, and
// I/O acceleration on parallel file systems. It restricts itself to
// lightweight operations (additions, subtractions, bitwise shifts, byte
// copies) and still reaches compression ratios of roughly 3-12x on typical
// scientific data, while guaranteeing that every reconstructed value
// differs from the original by no more than a user-specified error bound.
//
// # Quick start
//
//	comp, err := szx.Compress(data, szx.Options{ErrorBound: 1e-3})
//	...
//	dec, err := szx.Decompress(comp)
//
// The error bound is absolute by default; use Mode: szx.BoundRelative to
// specify it as a fraction of the dataset's value range (the paper's
// "value-range-based relative error bound").
//
// Compression and decompression are block-parallel: set Workers to the
// number of goroutines to use (WorkersAuto selects GOMAXPROCS). The
// parallel paths produce bit-identical streams and values to the serial
// ones.
//
// # Generic API and buffer reuse
//
// The codec core is implemented once, generically, over both element types.
// The [Float]-constrained functions ([CompressInto], [DecompressInto],
// [DecompressParallelInto]) append to caller-supplied buffers and perform
// no allocations once those buffers are warm; the per-type helpers
// (Compress, CompressFloat64, ...) are thin wrappers over them. For
// repeated compression of similar payloads — the in-memory-compression
// service pattern — use a [Codec], which keeps the reuse buffers
// internally.
//
// # Observability
//
// The repro/telemetry package instruments every layer — block taxonomy,
// required-bit and leading-byte-code distributions, engine selection, the
// work-stealing engine's internals, and per-stage wall times — behind a
// single opt-in gate (telemetry.Enable). Disabled, the instrumentation
// costs one atomic load per call. One registry declares every series, and
// each export surface (Prometheus text, the Snap series map and its expvar
// JSON, the text report) walks it; cmd/szx and cmd/szxbench expose them via
// -stats and -stats-http.
package szx

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/telemetry"
)

// Float constrains the element types SZx supports.
type Float interface{ ~float32 | ~float64 }

// Mode selects how Options.ErrorBound is interpreted.
type Mode int

const (
	// BoundAbsolute interprets ErrorBound as a maximum absolute
	// reconstruction error |d - d'|.
	BoundAbsolute Mode = iota
	// BoundRelative interprets ErrorBound as a fraction of the dataset's
	// global value range: e_abs = ErrorBound * (max - min). This matches
	// the REL bounds used throughout the paper's evaluation.
	BoundRelative
)

// Worker-count sentinels for Options.Workers.
const (
	// WorkersSerial runs compression on the calling goroutine.
	WorkersSerial = 0
	// WorkersAuto uses one worker per available CPU.
	WorkersAuto = -1
)

// DefaultBlockSize is the paper's recommended block size (§5.3).
const DefaultBlockSize = core.DefaultBlockSize

// MaxBlockSize is the largest accepted block size.
const MaxBlockSize = core.MaxBlockSize

// Errors surfaced by this package (additional codec errors are defined in
// terms of these sentinels via errors.Is).
var (
	ErrErrBound   = core.ErrErrBound
	ErrBlockSize  = core.ErrBlockSize
	ErrCorrupt    = core.ErrCorrupt
	ErrBadMagic   = core.ErrBadMagic
	ErrBadVersion = core.ErrBadVersion
	ErrWrongType  = core.ErrWrongType
)

// ErrDegenerateRange is returned for BoundRelative when the data has no
// usable value range, which makes a relative bound meaningless. The range
// is taken over the non-NaN values, so the data is degenerate when it is
// empty, all NaN, flat (every non-NaN value equal), or when max−min is
// infinite (an ±Inf value, or a float64 span that overflows).
var ErrDegenerateRange = errors.New("szx: relative bound on data with zero value range")

// Options configures compression.
type Options struct {
	// ErrorBound is the maximum tolerated reconstruction error, interpreted
	// per Mode. It must be positive and finite.
	ErrorBound float64
	// Mode selects absolute or value-range-relative bounds.
	Mode Mode
	// BlockSize is the number of consecutive values per block
	// (0 = DefaultBlockSize). Larger blocks compress better up to ~128;
	// see the paper's Fig. 8.
	BlockSize int
	// Workers controls block-level parallelism: WorkersSerial (0) for the
	// calling goroutine only, WorkersAuto (-1) for GOMAXPROCS workers, or
	// any positive count.
	Workers int
	// TargetRatio, when > 0, selects fixed-ratio mode: instead of taking
	// an error bound, the compressor searches for the absolute bound whose
	// compression ratio lands within ±5% of this value (FRaZ-style), then
	// encodes with it. The resolved bound travels in the stream header and
	// Stats.EffectiveBound. Mutually exclusive with ErrorBound; requires
	// BoundAbsolute; must be ≥ 1.
	TargetRatio float64
	// Unguarded disables the per-block error-bound verification pass,
	// matching the original C implementation's behaviour exactly. With it
	// disabled the bound can be exceeded marginally (≲2x) on adversarially
	// scaled data; guarded mode costs ~10-15% speed and is the default.
	Unguarded bool
	// Spans, when non-nil, receives this call's stage intervals (plan
	// resolution, the core engine's encode phases) for request-scoped
	// tracing; telemetry/trace.Trace is the canonical sink. Fixed-ratio
	// probe compressions are deliberately excluded — the whole search is
	// covered by the "resolve_plan" span. Nil costs nothing.
	Spans telemetry.SpanSink
}

func (o Options) coreOpts() core.Options {
	return core.Options{BlockSize: o.BlockSize, Unguarded: o.Unguarded, Spans: o.Spans}
}

// coreWorkers maps a worker count of this package onto the core's, whose 0
// means GOMAXPROCS: WorkersAuto becomes GOMAXPROCS, and WorkersSerial, like
// any other count below 1, the calling goroutine alone. Whether the workers
// are then used is the core's decision (core.Participants).
func coreWorkers(w int) int {
	if w == WorkersAuto {
		return core.Workers(0)
	}
	return max(w, 1)
}

// Header describes a compressed stream; see Info.
type Header = core.Header

// Stats reports per-run compression statistics; see CompressStats.
type Stats = core.Stats

// DType identifies the element type of a compressed stream.
type DType = core.DType

// Element types reported in Header.Type.
const (
	TypeFloat32 = core.TypeFloat32
	TypeFloat64 = core.TypeFloat64
)

// CompressInto compresses data under opt, appending the stream onto dst and
// returning the extended slice. It allocates nothing when dst has enough
// spare capacity, making it the building block for zero-allocation reuse
// (see Codec). Opt.Workers selects the serial or block-parallel path; both
// produce identical bytes. All bound interpretation — absolute, relative,
// fixed-ratio — goes through the plan resolver (see ResolvePlan).
func CompressInto[T Float](dst []byte, data []T, opt Options) ([]byte, error) {
	return compressInto(dst, data, opt, nil)
}

// compressInto is CompressInto with an optional caller-owned fixed-ratio
// probe scratch (nil = package pool); Codec passes its own for
// deterministic zero-allocation reuse.
//
// Plan resolution is recorded as the "resolve_plan" span: bound validation,
// the relative-bound range scan, and the whole fixed-ratio search (probes
// included) — for a TargetRatio request this span is where the latency
// hides. A relative bound resolves inside the core: on the parallel engine
// from the per-block stats its first phase takes, on one participant from
// a ValueRange scan; the span ends once the bound is resolved. Whether the
// workers are used is the core's decision.
func compressInto[T Float](dst []byte, data []T, opt Options, rs *ratioScratch) ([]byte, error) {
	var t0 time.Time
	if opt.Spans != nil {
		t0 = time.Now()
	}
	p, err := newPlan(opt)
	if err != nil {
		return nil, err
	}
	co := p.coreOpts()
	co.Spans = opt.Spans
	if opt.Mode == BoundRelative {
		if err := checkRelative(len(data), opt); err != nil {
			return nil, err
		}
		return core.CompressRangeParallelInto(dst, data, func(mn, mx float64) (float64, error) {
			b, err := relativeBound(opt.ErrorBound, mn, mx)
			if err == nil && opt.Spans != nil {
				opt.Spans.RecordSpan("resolve_plan", t0, time.Now())
			}
			return b, err
		}, co, p.Workers)
	}
	if err := resolveBound(&p, data, opt, rs); err != nil {
		return nil, err
	}
	if opt.Spans != nil {
		opt.Spans.RecordSpan("resolve_plan", t0, time.Now())
	}
	return core.CompressParallelInto(dst, data, p.Bound, co, p.Workers)
}

// CompressIntoStats is CompressInto with per-run statistics (serial path).
// In fixed-ratio mode the Stats carry the search trace (EffectiveBound,
// TargetRatio, RatioProbes, RatioConverged).
func CompressIntoStats[T Float](dst []byte, data []T, opt Options) ([]byte, Stats, error) {
	p, err := ResolvePlan(data, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	out, st, err := core.CompressIntoStats(dst, data, p.Bound, p.coreOpts())
	if err != nil {
		return nil, Stats{}, err
	}
	st.TargetRatio = p.TargetRatio
	st.RatioProbes = p.Probes
	st.RatioConverged = p.Converged
	return out, st, nil
}

// DecompressInto decompresses comp, appending the values onto dst and
// returning the extended slice. The stream's element type must match T
// (ErrWrongType otherwise). It allocates nothing when dst has enough spare
// capacity.
func DecompressInto[T Float](dst []T, comp []byte) ([]T, error) {
	return core.DecompressInto(dst, comp)
}

// DecompressParallelInto is DecompressInto with block-parallel decoding
// across workers (WorkersAuto selects GOMAXPROCS, WorkersSerial the calling
// goroutine).
func DecompressParallelInto[T Float](dst []T, comp []byte, workers int) ([]T, error) {
	return core.DecompressParallelInto(dst, comp, coreWorkers(workers))
}

// Compress compresses float32 data under opt. The resulting stream embeds
// everything needed for decompression (including the resolved absolute
// error bound, element type, and block size).
func Compress(data []float32, opt Options) ([]byte, error) {
	return CompressInto[float32](nil, data, opt)
}

// CompressStats is Compress with per-run statistics (serial path).
func CompressStats(data []float32, opt Options) ([]byte, Stats, error) {
	return CompressIntoStats[float32](nil, data, opt)
}

// Decompress reconstructs float32 values from a stream produced by Compress.
func Decompress(comp []byte) ([]float32, error) {
	return core.DecompressInto[float32](nil, comp)
}

// DecompressParallel is Decompress with block-parallel decoding across the
// given number of workers (WorkersAuto for GOMAXPROCS).
func DecompressParallel(comp []byte, workers int) ([]float32, error) {
	return DecompressParallelInto[float32](nil, comp, workers)
}

// CompressFloat64 compresses float64 data under opt.
func CompressFloat64(data []float64, opt Options) ([]byte, error) {
	return CompressInto[float64](nil, data, opt)
}

// CompressFloat64Stats is CompressFloat64 with per-run statistics.
func CompressFloat64Stats(data []float64, opt Options) ([]byte, Stats, error) {
	return CompressIntoStats[float64](nil, data, opt)
}

// DecompressFloat64 reconstructs float64 values.
func DecompressFloat64(comp []byte) ([]float64, error) {
	return core.DecompressInto[float64](nil, comp)
}

// DecompressFloat64Parallel is DecompressFloat64 with block-parallel
// decoding.
func DecompressFloat64Parallel(comp []byte, workers int) ([]float64, error) {
	return DecompressParallelInto[float64](nil, comp, workers)
}

// Info parses and validates the header of a compressed stream without
// decompressing it.
func Info(comp []byte) (Header, error) {
	return core.ParseHeader(comp)
}

// ActiveKernels reports which block-kernel implementation set the codec
// dispatched at startup ("avx2" on CPUs with the required vector features,
// "generic" otherwise) and why, e.g. "avx2 (cpu feature detection)" or
// "generic (SZX_KERNELS=generic)". Dispatch is decided once at init from
// CPUID feature bits; set SZX_KERNELS=generic|avx2|auto before the process
// starts to override it. Both sets produce bit-identical streams — the
// choice affects throughput only.
func ActiveKernels() string {
	return kernels.Detail()
}
