package szx

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/ieee"
	"repro/telemetry"
)

// Bound resolution: every entry point (one-shot, Codec, parallel, stream,
// archive, timeseries, service) accepts the same Options, but the codec
// core only understands one thing — an absolute error bound. This file is
// the single place where Options become that bound: absolute bounds pass
// through, value-range-relative bounds are resolved against the data, and
// fixed-ratio requests (Options.TargetRatio) run a FRaZ-style search
// (Underwood et al., IPDPS'20) over the bound until the estimated
// compression ratio lands within tolerance of the target.
//
// The search exploits two SZx properties: compression is fast enough that
// probing is affordable (the paper's core claim), and ratio(bound) is
// monotone nondecreasing — a larger bound can only turn more blocks
// constant and shave more required bits. Probes run on a sampled subset of
// block-aligned segments through the same pooled scratch buffer, so a warm
// fixed-ratio compression path allocates nothing.

// ErrBadOptions reports an Options value that is invalid or internally
// inconsistent (negative/NaN bound, TargetRatio < 1, or both ErrorBound
// and TargetRatio set). Errors carrying a more specific cause (such as
// ErrErrBound) match both sentinels via errors.Is.
var ErrBadOptions = errors.New("szx: invalid options")

// optionsError is a validation failure that matches ErrBadOptions and,
// when present, the more specific cause sentinel.
type optionsError struct {
	msg   string
	cause error
}

func (e *optionsError) Error() string { return e.msg }

// Unwrap exposes ErrBadOptions and the underlying cause.
func (e *optionsError) Unwrap() []error {
	if e.cause == nil {
		return []error{ErrBadOptions}
	}
	return []error{ErrBadOptions, e.cause}
}

func badOptions(cause error, format string, args ...any) error {
	return &optionsError{msg: "szx: " + fmt.Sprintf(format, args...), cause: cause}
}

// validate rejects Options that are invalid on their face, before any data
// is touched. A zero ErrorBound with a zero TargetRatio is left for the
// core to reject (ErrErrBound), preserving the historical error for the
// "forgot to set a bound" case; everything actively wrong — negative or
// non-finite bounds, sub-1 ratios, conflicting modes — fails here with
// ErrBadOptions.
func (o Options) validate() error {
	if math.IsNaN(o.ErrorBound) || o.ErrorBound < 0 || math.IsInf(o.ErrorBound, 0) {
		return badOptions(ErrErrBound, "error bound %v is not a positive finite number", o.ErrorBound)
	}
	if r := o.TargetRatio; r != 0 {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 1 {
			return badOptions(nil, "target ratio %v is not a finite value >= 1", r)
		}
		if o.ErrorBound > 0 {
			return badOptions(nil, "ErrorBound and TargetRatio are mutually exclusive")
		}
		if o.Mode != BoundAbsolute {
			return badOptions(nil, "TargetRatio resolves its own absolute bound; Mode must be BoundAbsolute")
		}
	}
	return nil
}

// Validate reports whether the options are well-formed, without touching
// any data. Invalid combinations — negative or non-finite bounds, a target
// ratio below 1, ErrorBound and TargetRatio both set — return an error
// matching ErrBadOptions. Every compression entry point runs the same
// check; Validate only lets a caller (a server rejecting a request before
// reading its body, say) fail early.
func (o Options) Validate() error { return o.validate() }

// withBound returns o rewritten as a plain absolute-bound request — the
// form every resolved plan reduces to.
func (o Options) withBound(b float64) Options {
	o.ErrorBound = b
	o.TargetRatio = 0
	o.Mode = BoundAbsolute
	return o
}

// Plan is a fully resolved compression decision: the absolute error bound
// the core will encode with, plus the trace of how it was reached. Every
// entry point resolves one (via ResolvePlan or internally) before calling
// the core.
type Plan struct {
	// Bound is the resolved absolute error bound.
	Bound float64
	// BlockSize and Unguarded pass through from Options; Workers is the
	// resolved worker count (WorkersAuto expanded to GOMAXPROCS,
	// WorkersSerial to 1).
	BlockSize int
	Workers   int
	Unguarded bool

	// Fixed-ratio trace (zero unless Options.TargetRatio was set).
	TargetRatio    float64 // requested ratio
	Probes         int     // sampled compression probes spent by the search
	EstimatedRatio float64 // estimated ratio at the chosen bound
	Converged      bool    // estimate within ratioTolerance of the target
}

func (p Plan) coreOpts() core.Options {
	return core.Options{BlockSize: p.BlockSize, Unguarded: p.Unguarded}
}

// ResolvePlan validates opt and resolves it against data into the absolute
// error bound compression will use, without compressing. For BoundRelative
// it scans the value range; for TargetRatio it runs the full bound search
// (so the cost is that of a few sampled probes). One-shot helpers and
// Codec do this internally — ResolvePlan is for callers that want the
// resolved bound or the search trace up front.
func ResolvePlan[T Float](data []T, opt Options) (Plan, error) {
	return resolvePlan(data, opt, nil)
}

// resolvePlan is ResolvePlan against an optional caller-owned probe
// scratch (nil = package pool), letting a warm Codec keep the whole search
// allocation-free deterministically.
func resolvePlan[T Float](data []T, opt Options, rs *ratioScratch) (Plan, error) {
	p, err := newPlan(opt)
	if err == nil {
		err = resolveBound(&p, data, opt, rs)
	}
	if err != nil {
		return Plan{}, err
	}
	return p, nil
}

// resolveBound resolves p.Bound (and the fixed-ratio trace) against data
// for the validated options opt.
func resolveBound[T Float](p *Plan, data []T, opt Options, rs *ratioScratch) error {
	switch {
	case opt.TargetRatio > 0:
		return resolveRatio(p, data, opt, rs)
	case opt.Mode == BoundRelative:
		if err := checkRelative(len(data), opt); err != nil {
			return err
		}
		mn, mx := core.ValueRange(data)
		b, err := relativeBound(opt.ErrorBound, float64(mn), float64(mx))
		p.Bound = b
		return err
	}
	return nil
}

// newPlan validates opt and returns its plan before any bound is resolved
// against data: Bound is opt.ErrorBound.
func newPlan(opt Options) (Plan, error) {
	if err := opt.validate(); err != nil {
		return Plan{}, err
	}
	return Plan{
		Bound:     opt.ErrorBound,
		BlockSize: opt.BlockSize,
		Workers:   coreWorkers(opt.Workers),
		Unguarded: opt.Unguarded,
	}, nil
}

// checkRelative returns the errors a value-range-relative bound fails with
// before its range is scanned, and counts the resolve.
func checkRelative(n int, o Options) error {
	if !(o.ErrorBound > 0) {
		return ErrErrBound
	}
	if n == 0 {
		return ErrDegenerateRange
	}
	if telemetry.Enabled() {
		telemetry.RelativeBoundResolves.Inc()
	}
	return nil
}

// relativeBound converts a value-range-relative bound eps into the absolute
// bound embedded in the stream. [mn, mx] is the range of the data's
// non-NaN values (see core.ValueRange), taken in float64 for both element
// types; for float64 inputs the conversions are identities. Both are NaN
// when the data holds no non-NaN value.
func relativeBound(eps, mn, mx float64) (float64, error) {
	r := mx - mn
	if !(r > 0) || math.IsInf(r, 0) {
		return 0, ErrDegenerateRange
	}
	return eps * r, nil
}

// --- fixed-ratio search ----------------------------------------------------

const (
	// ratioMaxProbes caps the sampled compression probes a full search may
	// spend (the acceptance budget: converge in ≤ 8 on the test corpus).
	ratioMaxProbes = 8
	// ratioChunkProbes caps the re-search budget for a follow-on stream
	// chunk, which starts from the first chunk's already-good seed.
	ratioChunkProbes = 4
	// ratioTolerance accepts an estimated ratio within ±5% of the target.
	ratioTolerance = 0.05
	// ratioExactCap: inputs up to this many values are probed whole (the
	// estimate is then exact); larger inputs are sampled.
	ratioExactCap = 1 << 16
	// ratioSampleSegs strided block-aligned segments of ratioSegBlocks
	// blocks each form the sample for large inputs.
	ratioSampleSegs = 32
	ratioSegBlocks  = 4
)

// ratioScratch is the reusable probe buffer. Probes compress into it and
// throw the bytes away; pooling it keeps the warm search at zero
// allocations. It is type-independent (probes write bytes), so one pool
// serves both element widths.
type ratioScratch struct {
	comp []byte
}

var ratioPool = sync.Pool{New: func() any { return new(ratioScratch) }}

// getRatioScratch / putRatioScratch lease a probe scratch from the pool for
// callers that resolve many plans back to back. The batch entry points lease
// one per participating worker so a fixed-ratio batch runs its per-array
// bound searches concurrently without the workers contending on the pool for
// every array.
func getRatioScratch() *ratioScratch   { return ratioPool.Get().(*ratioScratch) }
func putRatioScratch(rs *ratioScratch) { ratioPool.Put(rs) }

// resolveRatio fills p.Bound (and the search trace) for a TargetRatio
// request.
func resolveRatio[T Float](p *Plan, data []T, opt Options, rs *ratioScratch) error {
	p.TargetRatio = opt.TargetRatio
	bs := opt.BlockSize
	if bs == 0 {
		bs = DefaultBlockSize
	}
	if bs < 1 || bs > MaxBlockSize {
		return ErrBlockSize
	}
	if len(data) == 0 {
		// Mirror the relative-mode contract: no data, no resolvable bound.
		return ErrDegenerateRange
	}
	if rs == nil {
		rs = ratioPool.Get().(*ratioScratch)
		defer ratioPool.Put(rs)
	}
	if telemetry.Enabled() {
		telemetry.RatioSearches.Inc()
	}
	mn, mx := core.ValueRange(data)
	rangeV := float64(mx) - float64(mn)
	if !(rangeV > 0) || math.IsInf(rangeV, 0) {
		// Constant (all-NaN, or Inf-spanning) data: every bound yields the
		// same saturated ratio, so searching is pointless. Pick a bound at
		// the value's own scale — honest, and tiny relative to the data.
		b := math.Abs(float64(mx)) * 1e-9
		if !(b > 0) || math.IsInf(b, 0) {
			b = 1e-9
		}
		est, err := estimateRatio(rs, data, b, bs, opt)
		if err != nil {
			return err
		}
		p.Bound = b
		p.Probes = 1
		p.EstimatedRatio = est
		p.Converged = withinRatioTol(est, p.TargetRatio)
		finishRatioTrace(p)
		return nil
	}
	if err := searchRatioBound(p, rs, data, rangeV, bs, opt, 0, ratioMaxProbes); err != nil {
		return err
	}
	finishRatioTrace(p)
	return nil
}

func finishRatioTrace(p *Plan) {
	if telemetry.Enabled() {
		telemetry.RatioProbes.Add(int64(p.Probes))
		if !p.Converged {
			telemetry.RatioUnconverged.Inc()
		}
	}
}

func withinRatioTol(est, target float64) bool {
	return math.Abs(est/target-1) <= ratioTolerance
}

// searchRatioBound runs the bound search: a model-based first guess, then
// regula falsi in log-log space once the target is bracketed (ratio(bound)
// is monotone, and both axes span decades), with exponential bracket
// expansion before that. seed > 0 overrides the model guess (the streaming
// per-chunk re-search starts from the first chunk's bound). The best probe
// seen — minimum |ln(est/target)| — always wins, so an unconverged search
// still returns the closest bound it found.
func searchRatioBound[T Float](p *Plan, rs *ratioScratch, data []T, rangeV float64, bs int, opt Options, seed float64, maxProbes int) error {
	target := opt.TargetRatio
	lnTarget := math.Log(target)
	es := ieee.Width[T]()

	// Bound ceiling: at range/2 every block's radius is within the bound
	// and the stream is all constant blocks — the ratio can grow no
	// further. Floor: far below the range the encoder goes lossless and
	// the ratio stops shrinking.
	bMax := rangeV / 2
	bMin := math.Ldexp(rangeV, -60)

	b := seed
	if !(b > 0) {
		// Model seed: a nonconstant value stores ≈ reqLen/8 payload bytes
		// plus the 2-bit lead code, so ratio R needs reqLen ≈ 8·es/R − 2;
		// with reqLen = signExpBits + radExpo − errExpo and a typical
		// block radius near range/8, that fixes the bound's exponent.
		signExp := 9
		if es == 8 {
			signExp = 12
		}
		reqGuess := 8*float64(es)/target - 2
		if reqGuess < float64(signExp) {
			reqGuess = float64(signExp)
		}
		radExpo := ieee.Exponent64(rangeV / 8)
		b = math.Ldexp(1, radExpo-(int(reqGuess)-signExp))
	}
	if b > bMax {
		b = bMax
	}
	if b < bMin {
		b = bMin
	}

	var loX, loY, hiX, hiY float64 // bracket points in (ln bound, ln ratio)
	haveLo, haveHi := false, false
	lastSide := 0 // which bracket end the previous probe replaced
	bestB, bestEst, bestD := 0.0, 0.0, math.Inf(1)
	for p.Probes < maxProbes {
		est, err := estimateRatio(rs, data, b, bs, opt)
		if err != nil {
			return err
		}
		p.Probes++
		d := math.Log(est) - lnTarget
		if ad := math.Abs(d); ad < bestD {
			bestB, bestEst, bestD = b, est, ad
		}
		if withinRatioTol(est, target) {
			p.Converged = true
			break
		}
		x := math.Log(b)
		if d < 0 {
			// Ratio too low: need a larger bound. Keep the tightest such
			// point (largest x); when the same end moves twice in a row,
			// apply the Illinois correction — pull the far end's value
			// toward the target — so a one-sided plateau cannot stall the
			// interpolant.
			if haveLo && haveHi && lastSide < 0 {
				hiY = lnTarget + (hiY-lnTarget)/2
			}
			if !haveLo || x > loX {
				loX, loY = x, math.Log(est)
			}
			haveLo = true
			lastSide = -1
			if b >= bMax {
				break // saturated at all-constant; target unreachable
			}
		} else {
			if haveLo && haveHi && lastSide > 0 {
				loY = lnTarget + (loY-lnTarget)/2
			}
			if !haveHi || x < hiX {
				hiX, hiY = x, math.Log(est)
			}
			haveHi = true
			lastSide = 1
			if b <= bMin {
				break // saturated at lossless; target unreachable
			}
		}
		switch {
		case haveLo && haveHi:
			if hiX-loX < 1e-4 {
				// The bracket has collapsed onto a plateau edge: the ratio
				// jumps across the target here and no bound hits it.
				p.Bound = bestB
				p.EstimatedRatio = bestEst
				return nil
			}
			// Regula falsi (Illinois) on the bracket; monotonicity
			// guarantees loY < lnTarget < hiY. Fall back to bisection if
			// the interpolant lands on (or outside) an endpoint.
			nx := loX + (lnTarget-loY)*(hiX-loX)/(hiY-loY)
			if !(nx > loX && nx < hiX) {
				nx = (loX + hiX) / 2
			}
			b = math.Exp(nx)
		default:
			// Not yet bracketed: step by the model. A value stores
			// ≈ 8·es/ratio bits, and that count drops by one each time the
			// bound doubles, so the jump to the target is
			// Δlog2(bound) = 8·es·(1/est − 1/target) octaves. Move at
			// least one octave so a plateau cannot pin the expansion.
			nb := b * math.Exp2(8*float64(es)*(1/est-1/target))
			if haveLo {
				b = min(max(nb, b*2), bMax)
			} else {
				b = max(min(nb, b/2), bMin)
			}
		}
	}
	p.Bound = bestB
	p.EstimatedRatio = bestEst
	return nil
}

// estimateRatio estimates the compression ratio data would reach under an
// absolute bound. Small inputs are compressed whole (exact); large ones
// are sampled as strided block-aligned segments whose per-segment stream
// overhead is subtracted before scaling the payload back up to the full
// input. Either way the bytes land in the pooled scratch and are
// discarded — a probe costs compression time only, no allocations once
// the scratch is warm.
func estimateRatio[T Float](rs *ratioScratch, data []T, bound float64, bs int, opt Options) (float64, error) {
	copts := core.Options{BlockSize: opt.BlockSize, Unguarded: opt.Unguarded}
	n := len(data)
	segVals := ratioSegBlocks * bs
	if n <= ratioExactCap || n <= ratioSampleSegs*segVals {
		out, st, err := core.CompressIntoStats(rs.comp[:0], data, bound, copts)
		if err != nil {
			return 0, err
		}
		rs.comp = out
		return st.Ratio(), nil
	}
	stride := (n / segVals) / ratioSampleSegs // ≥ 1 by the guard above
	comp := rs.comp
	payload := 0
	sampled := 0
	var err error
	for i := 0; i < ratioSampleSegs; i++ {
		off := i * stride * segVals
		seg := data[off : off+segVals]
		var st core.Stats
		comp, st, err = core.CompressIntoStats(comp[:0], seg, bound, copts)
		if err != nil {
			rs.comp = comp
			return 0, err
		}
		payload += st.CompressedSize - streamOverhead(len(seg), bs)
		sampled += len(seg)
	}
	rs.comp = comp
	es := ieee.Width[T]()
	estSize := float64(streamOverhead(n, bs)) + float64(payload)*float64(n)/float64(sampled)
	return float64(es*n) / estSize, nil
}

// streamOverhead is the fixed per-stream cost for an n-value stream:
// header, constant-block bitmap, and the per-block zsize index.
func streamOverhead(n, bs int) int {
	nb := (n + bs - 1) / bs
	return core.HeaderSize + (nb+7)/8 + 2*nb
}

// --- streaming (per-chunk) resolution --------------------------------------

// ratioChunkBound re-resolves the bound for one follow-on stream chunk:
// probe the seed bound against this chunk's values and keep it while the
// estimate stays within tolerance (the common case — chunks of one
// instrument stream resemble each other), otherwise run a short re-search
// starting from the seed.
func ratioChunkBound(opt Options, seed float64, chunk []float32) (float64, error) {
	bs := opt.BlockSize
	if bs == 0 {
		bs = DefaultBlockSize
	}
	if bs < 1 || bs > MaxBlockSize {
		return 0, ErrBlockSize
	}
	if len(chunk) == 0 {
		return seed, nil
	}
	if telemetry.Enabled() {
		telemetry.RatioReestimates.Inc()
	}
	mn, mx := core.ValueRange(chunk)
	rangeV := float64(mx) - float64(mn)
	if !(rangeV > 0) || math.IsInf(rangeV, 0) {
		// Flat chunk: constant blocks at any bound; the seed stays honest.
		return seed, nil
	}
	rs := ratioPool.Get().(*ratioScratch)
	defer ratioPool.Put(rs)
	var p Plan
	p.TargetRatio = opt.TargetRatio
	if err := searchRatioBound(&p, rs, chunk, rangeV, bs, opt, seed, ratioChunkProbes); err != nil {
		return 0, err
	}
	finishRatioTrace(&p)
	return p.Bound, nil
}
