package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	szx "repro"
	"repro/internal/wireconv"
	"repro/service/internal/wire"
	"repro/telemetry"
)

const contentTypeBinary = "application/octet-stream"

// parseOptions maps the query string onto szx.Options plus the element
// width, filling zero fields with the server's defaults and capping
// workers at the server's limit. Invalid options fail here, before the
// body is read: a batch would otherwise fail array by array, and a stream
// could only truncate its response.
func (s *Server) parseOptions(q url.Values) (opt szx.Options, elemSize int, err error) {
	p, elem, err := wire.ParseQuery(q)
	if err != nil {
		return opt, 0, err
	}
	opt = szx.Options{ErrorBound: p.ErrorBound, TargetRatio: p.TargetRatio, Mode: p.Mode, BlockSize: p.BlockSize, Workers: p.Workers}
	if opt.ErrorBound == 0 && opt.TargetRatio == 0 {
		opt.ErrorBound = s.cfg.DefaultErrorBound
	}
	if opt.Workers == szx.WorkersAuto || opt.Workers > s.cfg.MaxWorkers {
		opt.Workers = s.cfg.MaxWorkers
	}
	if err := opt.Validate(); err != nil {
		return opt, 0, err
	}
	// Validate leaves the block size to the codec, which reports it only
	// once it runs.
	if opt.BlockSize < 0 || opt.BlockSize > szx.MaxBlockSize {
		return opt, 0, fmt.Errorf("block size %d: %w", opt.BlockSize, szx.ErrBlockSize)
	}
	if elem == wire.ElemF64 {
		return opt, 8, nil
	}
	return opt, 4, nil
}

// readBody pulls the whole body through the scratch buffer, translating
// size and disconnect failures into wire responses. A nil slice return
// means the response has already been written.
func (rq *reqScope) readBody(w http.ResponseWriter, r *http.Request, sc *scratch) []byte {
	sp := rq.tr.StartSpan("read_body")
	body, err := sc.readBody(r.Body, rq.srv.cfg.MaxBodyBytes)
	sp.End()
	switch {
	case errors.Is(err, errBodyTooLarge):
		telemetry.ServiceBadRequests.Inc()
		rq.tr.SetError(err.Error())
		wire.WriteError(w, wire.Error{Code: wire.CodeTooLarge, Message: err.Error()}, 0)
		return nil
	case err != nil:
		// A read error on the request body means the client went away (or
		// the connection broke) mid-upload; nobody is listening for a body.
		telemetry.ServiceCancelledRequests.Inc()
		rq.tr.SetError("client closed request during body read")
		w.WriteHeader(wire.Status(wire.CodeCancelled))
		return nil
	case len(body) == 0:
		rq.badRequest(w, "empty request body")
		return nil
	}
	telemetry.ServiceBytesIn.Add(int64(len(body)))
	rq.tr.SetBytes(int64(len(body)), -1)
	return body
}

// handleCompress buffers the raw float payload, compresses it on a pooled
// codec, and returns the SZx stream.
func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	rq, w, r, ok := s.begin(w, r, &telemetry.ServiceRequestsCompress, "compress")
	if !ok {
		return
	}
	defer rq.end()

	opt, elemSize, err := s.parseOptions(r.URL.Query())
	if err != nil {
		rq.fail(w, err)
		return
	}
	sc := getScratch(r.ContentLength)
	defer putScratch(sc)
	body := rq.readBody(w, r, sc)
	if body == nil {
		return
	}
	if len(body)%elemSize != 0 {
		rq.badRequest(w, fmt.Sprintf("body length %d is not a multiple of the %d-byte element size",
			len(body), elemSize))
		return
	}
	if rq.tr != nil {
		// The codec reports resolve_plan and encode/gather phases itself.
		opt.Spans = rq.tr
	}

	var comp []byte
	if elemSize == 4 {
		comp, err = compressBody(rq, &sc.f32, sc.c32, body, opt)
	} else {
		comp, err = compressBody(rq, &sc.f64, sc.c64, body, opt)
	}
	if err != nil {
		rq.fail(w, err)
		return
	}
	sp := rq.tr.StartSpan("write_response")
	writeBinary(w, comp)
	sp.End()
}

// handleDecompress buffers the compressed payload — a single SZx stream or
// an SZXS streaming container, auto-detected — decodes it fully in memory,
// and returns the raw floats. Decoding completes before the first response
// byte, so corrupt input always yields a clean 4xx, never a truncated 200.
func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	rq, w, r, ok := s.begin(w, r, &telemetry.ServiceRequestsDecompress, "decompress")
	if !ok {
		return
	}
	defer rq.end()

	opt, _, err := s.parseOptions(r.URL.Query())
	if err != nil {
		rq.fail(w, err)
		return
	}
	sc := getScratch(r.ContentLength)
	defer putScratch(sc)
	body := rq.readBody(w, r, sc)
	if body == nil {
		return
	}

	if isStreamContainer(body) {
		// SZXS container: decode chunk by chunk with the inline container
		// reader (no goroutines, fully deterministic) into the reused
		// value buffer.
		sp := rq.tr.StartSpan("decode")
		sr := szx.NewReader(bytes.NewReader(body))
		vals := sc.f32[:0]
		for {
			if len(vals) == cap(vals) {
				vals = append(vals, 0)[:len(vals)]
			}
			n, rerr := sr.Read(vals[len(vals):cap(vals)])
			vals = vals[:len(vals)+n]
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				sc.f32 = vals
				sp.End()
				rq.fail(w, rerr)
				return
			}
		}
		sc.f32 = vals
		sp.End()
		writeValues(rq, w, sc, vals)
		return
	}

	h, err := szx.Info(body)
	if err != nil {
		rq.fail(w, err)
		return
	}
	if h.Type == szx.TypeFloat64 {
		decompressBody(rq, w, sc, sc.c64, body, opt)
	} else {
		decompressBody(rq, w, sc, sc.c32, body, opt)
	}
}

// compressBody unpacks body into the scratch's value buffer vals and
// compresses it on the scratch's codec c.
func compressBody[T szx.Float](rq *reqScope, vals *[]T, c *szx.Codec[T], body []byte, opt szx.Options) ([]byte, error) {
	sp := rq.tr.StartSpan("unpack_body")
	*vals = wireconv.Values(*vals, body)
	sp.End()
	c.SetOptions(opt)
	return c.Compress(*vals)
}

// decompressBody decodes a single SZx stream on the scratch's codec c and
// sends the values.
func decompressBody[T szx.Float](rq *reqScope, w http.ResponseWriter, sc *scratch, c *szx.Codec[T], body []byte, opt szx.Options) {
	sp := rq.tr.StartSpan("decode")
	c.SetOptions(opt)
	vals, err := c.Decompress(body)
	sp.End()
	if err != nil {
		rq.fail(w, err)
		return
	}
	writeValues(rq, w, sc, vals)
}

// handleStreamCompress pumps an unbounded raw float32 body through the
// pipelined engine and emits an SZXS container as it goes. Memory is the
// pipeline window regardless of body size. Because bytes stream out before
// the body finishes, a mid-stream failure can only truncate the response —
// SZXS's terminator frame lets the receiver detect that.
func (s *Server) handleStreamCompress(w http.ResponseWriter, r *http.Request) {
	rq, w, r, ok := s.begin(w, r, &telemetry.ServiceRequestsStreamCompress, "stream_compress")
	if !ok {
		return
	}
	defer rq.end()

	opt, elemSize, err := s.parseOptions(r.URL.Query())
	if err != nil {
		rq.fail(w, err)
		return
	}
	if elemSize != 4 {
		rq.badRequest(w, "streaming endpoints carry float32 only")
		return
	}

	chunkBytes := 4 * s.cfg.ChunkValues
	sc := getScratch(int64(chunkBytes))
	defer putScratch(sc)
	buf := resize(sc.raw, chunkBytes)
	defer func() { sc.raw = buf }()

	// Both streaming endpoints read the request body while writing the
	// response. Go's HTTP/1.x server is half-duplex by default — body
	// reads fail once the response starts — so opt in to full duplex
	// (no-op on HTTP/2, where streams are always bidirectional).
	_ = http.NewResponseController(w).EnableFullDuplex()

	w.Header().Set("Content-Type", contentTypeBinary)
	cw := &countingWriter{w: w}
	// The pipeline picks the request trace out of r.Context() itself and
	// records one pipe_frame span per emitted frame.
	pw := szx.NewPipeWriterContext(r.Context(), cw, opt, s.cfg.ChunkValues, s.cfg.StreamParallelism)
	var bodyIn int64
	defer func() {
		telemetry.ServiceBytesOut.Add(cw.n)
		rq.tr.SetBytes(bodyIn, -1)
	}()

	for {
		n, rerr := io.ReadFull(r.Body, buf)
		if n > 0 {
			telemetry.ServiceBytesIn.Add(int64(n))
			bodyIn += int64(n)
			if n%4 != 0 {
				// Truncated trailing element: the upload broke mid-float.
				telemetry.ServiceBadRequests.Inc()
				rq.tr.SetError("body truncated mid-element")
				pw.Abort()
				_ = pw.Close()
				return
			}
			sc.f32 = wireconv.Values(sc.f32, buf[:n])
			if werr := pw.Write(sc.f32); werr != nil {
				countStreamFailure(r, werr)
				rq.tr.SetError(werr.Error())
				pw.Abort()
				_ = pw.Close()
				return
			}
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
		if rerr != nil {
			telemetry.ServiceCancelledRequests.Inc()
			rq.tr.SetError("client closed request during body read")
			pw.Abort()
			_ = pw.Close()
			return
		}
	}
	if cerr := pw.Close(); cerr != nil {
		countStreamFailure(r, cerr)
		rq.tr.SetError(cerr.Error())
	}
}

// handleStreamDecompress pumps an SZXS container body through the
// pipelined reader and emits raw float32 bytes. An error before the first
// output byte yields a clean 4xx; after that the response truncates.
func (s *Server) handleStreamDecompress(w http.ResponseWriter, r *http.Request) {
	rq, w, r, ok := s.begin(w, r, &telemetry.ServiceRequestsStreamDecompress, "stream_decompress")
	if !ok {
		return
	}
	defer rq.end()

	sc := getScratch(int64(4 * s.cfg.ChunkValues))
	defer putScratch(sc)
	vals := resize(sc.f32, s.cfg.ChunkValues)
	out := resize(sc.out, 4*len(vals))
	defer func() { sc.f32, sc.out = vals, out }()

	// See handleStreamCompress: body reads continue after response writes
	// begin, which HTTP/1.x only allows in full-duplex mode.
	_ = http.NewResponseController(w).EnableFullDuplex()

	cr := &countingReader{r: r.Body}
	// As on the compress side, the pipeline reads the request trace from
	// r.Context() and records per-frame spans.
	pr := szx.NewPipeReaderContext(r.Context(), cr, s.cfg.StreamParallelism)
	defer pr.Close()
	defer func() {
		telemetry.ServiceBytesIn.Add(cr.n)
		rq.tr.SetBytes(cr.n, -1)
	}()

	wrote := false
	for {
		n, rerr := pr.Read(vals)
		if n > 0 {
			wireconv.Put(out, vals[:n])
			if !wrote {
				w.Header().Set("Content-Type", contentTypeBinary)
				wrote = true
			}
			if _, werr := w.Write(out[:4*n]); werr != nil {
				telemetry.ServiceCancelledRequests.Inc()
				rq.tr.SetError("client closed request during response write")
				return
			}
			telemetry.ServiceBytesOut.Add(int64(4 * n))
		}
		if rerr == io.EOF {
			return
		}
		if rerr != nil {
			if !wrote {
				rq.fail(w, rerr)
				return
			}
			// Headers are gone; the only honest signal is truncation.
			countStreamFailure(r, rerr)
			rq.tr.SetError(rerr.Error())
			return
		}
	}
}

// countStreamFailure attributes a mid-stream pipeline error: a cancelled
// request context is the client's doing, anything else is a decode/encode
// failure worth the bad-request counter.
func countStreamFailure(r *http.Request, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || r.Context().Err() != nil {
		telemetry.ServiceCancelledRequests.Inc()
		return
	}
	telemetry.ServiceBadRequests.Inc()
}

// isStreamContainer reports whether b starts with the SZXS container magic.
func isStreamContainer(b []byte) bool {
	return len(b) >= 4 && b[0] == 'S' && b[1] == 'Z' && b[2] == 'X' && b[3] == 'S'
}

// writeBinary sends a fully materialized binary response.
func writeBinary(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", contentTypeBinary)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	n, _ := w.Write(b)
	telemetry.ServiceBytesOut.Add(int64(n))
}

// writeValues stages vals as little-endian bytes in the scratch and sends
// them; its write_response span covers both.
func writeValues[T szx.Float](rq *reqScope, w http.ResponseWriter, sc *scratch, vals []T) {
	sp := rq.tr.StartSpan("write_response")
	sc.out = resize(sc.out, len(vals)*wireconv.Size[T]())
	wireconv.Put(sc.out, vals)
	writeBinary(w, sc.out)
	sp.End()
}

// countingWriter / countingReader tally streamed bytes for the service
// byte counters without buffering anything.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
