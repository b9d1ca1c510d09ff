package service

import (
	"errors"
	"net/http"
	"time"

	szx "repro"
	"repro/service/internal/wire"
	"repro/telemetry"
	"repro/telemetry/trace"
)

// statusWriter records the response status and body size as they pass
// through, so the trace and access log can report what was actually sent.
// Unwrap lets http.ResponseController reach the real writer (the streaming
// handlers need EnableFullDuplex and, on HTTP/1.x, flushing).
type statusWriter struct {
	rw     http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) Header() http.Header { return w.rw.Header() }

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.rw.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.rw.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.rw }

// reqScope carries one admitted request's cross-cutting state: its trace,
// the status-recording writer, and the admission release. Handlers defer
// end() and route failures through fail/badRequest so the trace captures
// the error text.
type reqScope struct {
	srv     *Server
	tr      *trace.Trace // nil when tracing is disabled
	sw      *statusWriter
	release func()
	start   time.Time
}

// begin runs the request-scoped preamble for a data endpoint: start (or
// adopt) a trace, run admission — recording the wait as the queue_wait
// span — and count the request. The trace ID goes back in
// wire.TraceIDHeader before admission, so even shed responses carry the
// handle for /debug/requests?trace_id=... On denial it writes the error
// response and finishes the trace itself, returning ok=false. On success the returned
// writer and request (trace-wrapped) replace the originals, and the caller
// must defer sc.end().
func (s *Server) begin(w http.ResponseWriter, r *http.Request, reqs *telemetry.Counter, name string) (sc *reqScope, ww http.ResponseWriter, rr *http.Request, ok bool) {
	var tr *trace.Trace
	if s.rec != nil {
		tr = trace.FromTraceparent(name, r.Header.Get(wire.TraceparentHeader))
		w.Header().Set(wire.TraceIDHeader, tr.ID())
		r = r.WithContext(trace.NewContext(r.Context(), tr))
	}
	admT0 := time.Now()
	release, den := s.adm.admit(r.Context().Done(), tr.ID())
	tr.RecordSpan("queue_wait", admT0, time.Now())
	if den != nil {
		wire.WriteError(w, wire.Error{Code: den.code, Message: den.msg}, den.retryAfter)
		if tr != nil {
			status := wire.Status(den.code)
			tr.SetStatus(status)
			tr.SetError(den.msg)
			tr.Finish(s.rec)
			s.logAccess(tr, status, 0)
		}
		return nil, w, r, false
	}
	reqs.Inc()
	sw := &statusWriter{rw: w}
	sc = &reqScope{srv: s, tr: tr, sw: sw, release: release, start: time.Now()}
	return sc, sw, r, true
}

// end closes out an admitted request: release the execution slot, feed the
// duration histogram (with this trace as exemplar candidate), seal the
// trace with the response's actual status and size, offer it to the ring,
// and emit the access-log line.
func (sc *reqScope) end() {
	d := time.Since(sc.start)
	telemetry.ServiceRequestDurations.ObserveExemplar(d.Nanoseconds(), sc.tr.ID())
	sc.release()
	if sc.tr == nil {
		return
	}
	status := sc.sw.status
	if status == 0 {
		status = http.StatusOK
	}
	sc.tr.SetStatus(status)
	sc.tr.SetBytes(-1, sc.sw.bytes)
	sc.tr.Finish(sc.srv.rec)
	sc.srv.logAccess(sc.tr, status, sc.sw.bytes)
}

// fail classifies err, counts it, pins its text on the trace (error-marked
// traces are always retained) and writes the error response.
func (sc *reqScope) fail(w http.ResponseWriter, err error) {
	sc.tr.SetError(err.Error())
	we := wire.Error{Code: wire.CodeOf(err), Message: err.Error()}
	var fe *szx.FrameError
	if errors.As(err, &fe) {
		we.Frame, we.Offset = fe.Frame, fe.Offset
	}
	if wire.Status(we.Code) < 500 {
		telemetry.ServiceBadRequests.Inc()
	}
	wire.WriteError(w, we, 0)
}

// badRequest is fail for a problem found before the codec runs.
func (sc *reqScope) badRequest(w http.ResponseWriter, msg string) {
	sc.tr.SetError(msg)
	telemetry.ServiceBadRequests.Inc()
	wire.WriteError(w, wire.Error{Code: wire.CodeBadRequest, Message: msg}, 0)
}

// logAccess emits one structured access-log line for a finished request.
func (s *Server) logAccess(tr *trace.Trace, status int, bytesOut int64) {
	if s.alog == nil || tr == nil {
		return
	}
	s.alog.Info("request",
		"trace_id", tr.ID(),
		"endpoint", tr.Name(),
		"status", status,
		"bytes_out", bytesOut,
		"dur_us", tr.Duration().Microseconds(),
		"queue_wait_us", tr.SpanDur("queue_wait").Microseconds(),
		"stages", tr.StageSummary(),
	)
}
