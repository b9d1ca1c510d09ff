package service

import (
	"fmt"
	"net/http"
	"sync"

	szx "repro"
	"repro/internal/wireconv"
	"repro/service/internal/wire"
	"repro/telemetry"
)

// Batch endpoints: POST /v1/batch/compress and /v1/batch/decompress carry
// many independent arrays in one HTTP request, so small payloads amortize
// the per-request fixed costs (round trip, admission, scratch lease, engine
// fan-out) across the whole batch. One request takes ONE admission slot and
// ONE pooled scratch, and the arrays ride the codec's work-stealing queue
// as work items via szx.CompressBatch/DecompressBatch.
//
// Both directions are SZXB-framed (package wire). A response entry carries
// either the array's result or its error, with the same code vocabulary as
// one-shot wire errors plus the array's position. Per-array failures leave
// the batch a 200: one corrupt array never fails its neighbours. Only
// envelope-level problems (bad magic/version, truncated framing, empty
// batch, count over MaxBatchArrays, bad query parameters) fail the whole
// request with a 4xx.

// batchScratch is the per-request working set for batch endpoints: the
// positional slices the batch API fills. Pooled separately from scratch
// because only batch requests pay for it. The per-array out/value buffers
// keep their capacity across leases, so a warm batch request allocates
// nothing beyond what the codec itself needs.
type batchScratch struct {
	views [][]byte // request payload views into the (pooled) body buffer
	outs  [][]byte // per-array compressed results, capacity reused
	errs  []error
	f32s  [][]float32
	f64s  [][]float64
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func getBatchScratch() *batchScratch { return batchPool.Get().(*batchScratch) }

func putBatchScratch(bs *batchScratch) {
	// The views alias the body buffer of a scratch that is being returned to
	// its own pool; clearing them keeps this pool from pinning that one.
	clear(bs.views)
	clear(bs.errs)
	batchPool.Put(bs)
}

// handleBatchCompress runs a whole SZXB batch of raw float arrays through
// one engine pass and returns an SZXB batch of SZx streams.
func (s *Server) handleBatchCompress(w http.ResponseWriter, r *http.Request) {
	s.handleBatch(w, r, true)
}

// handleBatchDecompress runs an SZXB batch of SZx streams through one
// engine pass and returns an SZXB batch of raw little-endian float arrays.
// Each stream must match the batch's element type (?t=); SZXS streaming
// containers are not batchable and fail their array as corrupt.
func (s *Server) handleBatchDecompress(w http.ResponseWriter, r *http.Request) {
	s.handleBatch(w, r, false)
}

// handleBatch is both batch endpoints: admission, options, one scratch
// lease and the envelope parse, then one typed engine pass.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, compress bool) {
	reqs, name := &telemetry.ServiceRequestsBatchDecompress, "batch_decompress"
	if compress {
		reqs, name = &telemetry.ServiceRequestsBatchCompress, "batch_compress"
	}
	rq, w, r, ok := s.begin(w, r, reqs, name)
	if !ok {
		return
	}
	defer rq.end()

	q := r.URL.Query()
	opt, elemSize, err := s.parseOptions(q)
	if err != nil {
		rq.fail(w, err)
		return
	}
	// Unless the request pins ?workers=, a batch runs at the server's
	// worker cap: the whole point of batching is one wide engine pass.
	if q.Get("workers") == "" {
		opt.Workers = s.cfg.MaxWorkers
	}
	sc := getScratch(r.ContentLength)
	defer putScratch(sc)
	body := rq.readBody(w, r, sc)
	if body == nil {
		return
	}
	bs := getBatchScratch()
	defer putBatchScratch(bs)

	sp := rq.tr.StartSpan("parse_frames")
	bs.views, err = wire.ParseRequest(bs.views, body, s.cfg.MaxBatchArrays)
	sp.End()
	if err != nil {
		rq.badRequest(w, err.Error())
		return
	}
	telemetry.BatchArrays.Add(int64(len(bs.views)))
	telemetry.BatchArraysPerRequest.Observe(int64(len(bs.views)))
	for _, v := range bs.views {
		telemetry.BatchArrayBytes.Observe(int64(len(v)))
	}

	out := wire.AppendHeader(sc.out[:0], len(bs.views))
	switch {
	case compress && elemSize == 4:
		out = compressBatch(rq, out, bs, &sc.f32, &bs.f32s, opt)
	case compress:
		out = compressBatch(rq, out, bs, &sc.f64, &bs.f64s, opt)
	case elemSize == 4:
		out = decompressBatch(rq, out, bs, &bs.f32s, opt.Workers)
	default:
		out = decompressBatch(rq, out, bs, &bs.f64s, opt.Workers)
	}
	sc.out = out
	sp = rq.tr.StartSpan("write_response")
	writeBinary(w, out)
	sp.End()
}

// compressBatch unpacks every aligned array into one flat value buffer
// (the scratch's flat) and hands the batch API subslice views (arrays),
// then appends one response entry per array to out. A misaligned array gets
// a nil view and a bad_request entry, never a whole-batch failure.
func compressBatch[T szx.Float](rq *reqScope, out []byte, bs *batchScratch, flat *[]T, arrays *[][]T, opt szx.Options) []byte {
	size := wireconv.Size[T]()
	sp := rq.tr.StartSpan("unpack_body")
	total := 0
	for _, v := range bs.views {
		total += len(v) / size
	}
	*flat = resize(*flat, total)
	*arrays = resize(*arrays, len(bs.views))
	off := 0
	for i, v := range bs.views {
		if len(v)%size != 0 {
			(*arrays)[i] = nil
			continue
		}
		arr := (*flat)[off : off+len(v)/size]
		wireconv.Decode(arr, v)
		(*arrays)[i] = arr
		off += len(arr)
	}
	sp.End()
	sp = rq.tr.StartSpan("compress_batch")
	bs.outs, bs.errs = szx.CompressBatch(bs.outs, bs.errs, *arrays, opt)
	sp.End()
	clear(*arrays) // views into the pooled scratch buffer; don't pin it

	for i, v := range bs.views {
		switch {
		case len(v)%size != 0:
			out = appendArrayError(out, i, wire.CodeBadRequest,
				fmt.Sprintf("array length %d is not a multiple of the %d-byte element size", len(v), size))
		case bs.errs[i] != nil:
			out = appendArrayError(out, i, wire.CodeOf(bs.errs[i]), bs.errs[i].Error())
		default:
			out = append(wire.AppendResult(out, wire.StatusOK, len(bs.outs[i])), bs.outs[i]...)
		}
	}
	return out
}

// decompressBatch decodes every stream into the batch's reused value
// buffers and appends one response entry per array to out.
func decompressBatch[T szx.Float](rq *reqScope, out []byte, bs *batchScratch, arrays *[][]T, workers int) []byte {
	sp := rq.tr.StartSpan("decompress_batch")
	*arrays, bs.errs = szx.DecompressBatch(*arrays, bs.errs, bs.views, workers)
	sp.End()
	for i, vals := range *arrays {
		if err := bs.errs[i]; err != nil {
			out = appendArrayError(out, i, wire.CodeOf(err), err.Error())
			continue
		}
		out = wireconv.Append(wire.AppendResult(out, wire.StatusOK, len(vals)*wireconv.Size[T]()), vals)
	}
	return out
}

// appendArrayError appends array i's error entry and counts the failure.
func appendArrayError(out []byte, i int, code, msg string) []byte {
	telemetry.BatchArrayErrors.Inc()
	return wire.AppendArrayError(out, wire.ArrayError{Code: code, Message: msg, Index: i})
}
