package szx

import (
	"slices"

	"repro/internal/core"
	"repro/internal/ieee"
)

// Batch entry points: many independent arrays, one engine pass. The service
// motivation is small payloads — at 4-256 KiB per array the fixed costs
// (plan resolution, worker handoff, HTTP round trip at the service layer)
// rival the codec work itself, so the win is to make the *array* the unit of
// parallelism: arrays become work items on the same work-stealing cursor the
// chunk engine uses, each array encodes serially inside one worker, and the
// whole batch costs one fan-out instead of N.
//
// Results are positional and independent: errs[i] reports array i alone, and
// one corrupt or degenerate array never poisons its neighbours. Each array
// resolves its own Plan (relative bounds against its own value range, its
// own fixed-ratio search), so a batch is byte-identical to N one-shot calls
// with the same Options — pinned by TestCompressBatchByteIdentity.

// CompressBatch compresses each array independently under opt, appending
// stream i onto outs[i][:0] (outs is grown to len(arrays); existing element
// capacity is reused, so a warm caller allocates nothing). opt.Workers
// controls cross-array parallelism — arrays are distributed over the
// persistent worker pool and each array encodes serially within its worker.
// The engine's serial-fallback policy decides on the batch's total payload:
// a batch below its threshold, or in a process with one P, runs inline on
// the caller.
//
// The returned slices are outs and errs grown to length len(arrays);
// errs[i] != nil marks array i failed (its outs[i] is left empty).
func CompressBatch[T Float](outs [][]byte, errs []error, arrays [][]T, opt Options) ([][]byte, []error) {
	n := len(arrays)
	outs = growBatch(outs, n)
	errs = growBatch(errs, n)
	for i := range errs {
		errs[i] = nil
	}
	if n == 0 {
		return outs, errs
	}
	if err := opt.validate(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return outs, errs
	}
	total := 0
	for _, a := range arrays {
		total += len(a)
	}
	w := core.Participants(coreWorkers(opt.Workers), n, ieee.Width[T]()*total)
	aopt := opt
	aopt.Workers = WorkersSerial // the array is the parallel unit
	aopt.Spans = nil             // per-array spans would interleave arbitrarily

	// Fixed-ratio batches lease one probe scratch per participant up front,
	// so the per-array bound searches run concurrently on warm buffers.
	var rss []*ratioScratch
	if opt.TargetRatio > 0 {
		rss = make([]*ratioScratch, w)
		for i := range rss {
			rss[i] = getRatioScratch()
		}
		defer func() {
			for _, rs := range rss {
				putRatioScratch(rs)
			}
		}()
	}
	core.BatchRun(n, w, func(worker, i int) {
		var rs *ratioScratch
		if rss != nil {
			rs = rss[worker]
		}
		out, err := compressInto(outs[i][:0], arrays[i], aopt, rs)
		if err != nil {
			errs[i] = err
			outs[i] = outs[i][:0]
			return
		}
		outs[i] = out
	})
	return outs, errs
}

// DecompressBatch decompresses each stream independently, appending array
// i's values onto outs[i][:0] (capacity reused, as in CompressBatch).
// workers controls cross-array parallelism (WorkersAuto = GOMAXPROCS) under
// the same policy as CompressBatch, keyed on decoded bytes; each stream
// decodes serially within its worker. A stream whose element type does not
// match T fails that array alone with ErrWrongType.
func DecompressBatch[T Float](outs [][]T, errs []error, comps [][]byte, workers int) ([][]T, []error) {
	n := len(comps)
	outs = growBatch(outs, n)
	errs = growBatch(errs, n)
	for i := range errs {
		errs[i] = nil
	}
	if n == 0 {
		return outs, errs
	}
	// Headers are cheap to parse and give the exact decoded size
	// (unparseable streams contribute nothing — they fail per-array below
	// either way).
	total := 0
	for _, c := range comps {
		if h, err := Info(c); err == nil {
			total += h.N
		}
	}
	w := core.Participants(coreWorkers(workers), n, ieee.Width[T]()*total)
	core.BatchRun(n, w, func(_, i int) {
		out, err := core.DecompressInto(outs[i][:0], comps[i])
		if err != nil {
			errs[i] = err
			outs[i] = outs[i][:0]
			return
		}
		outs[i] = out
	})
	return outs, errs
}

// growBatch resizes a positional result slice to n, reusing the backing
// array (and therefore the per-element buffer capacities) of a warm caller.
func growBatch[S any](s []S, n int) []S {
	return slices.Grow(s[:0], n)[:n]
}
