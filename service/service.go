// Package service exposes the SZx codec behind an HTTP service boundary —
// the in-flight use cases the paper motivates (checkpoint dump/load, data
// migration, instrument streams) almost always reach a compressor over a
// network hop, not a function call.
//
// The server is deliberately boring on the wire and careful behind it:
//
//   - POST /v1/compress — raw little-endian float payload in, SZx stream
//     out. Options ride in the query string (?t=f32&e=1e-3&mode=rel&...).
//   - POST /v1/decompress — SZx stream (or SZXS streaming container,
//     auto-detected) in, raw little-endian floats out.
//   - POST /v1/stream/compress — unbounded raw float32 body in, SZXS
//     container out, pumped through the pipelined engine with bounded
//     memory; neither side is ever buffered whole.
//   - POST /v1/stream/decompress — SZXS container in, raw float32 out,
//     same bounded-memory pipeline in reverse.
//   - POST /v1/batch/compress, /v1/batch/decompress — many small arrays in
//     one SZXB-framed request, processed in one engine pass under one
//     admission slot with per-array error reporting (see batch.go).
//   - GET /healthz, /readyz — liveness and drain-aware readiness.
//   - GET /metrics, /debug/vars — the telemetry package's existing export
//     surfaces, including the szx_service_* family.
//
// Every data endpoint passes admission control first: a semaphore caps
// concurrent work at MaxInFlight, a bounded queue absorbs bursts, and
// anything beyond that is shed immediately with 429 + Retry-After rather
// than queueing without bound (503 while draining). Admitted requests run
// on pooled Codec handles and scratch buffers, so the steady-state
// compression path allocates nothing; request contexts are threaded into
// the pipelined engine so an abandoned request unwinds instead of
// stranding goroutines.
package service

import (
	"context"
	"expvar"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	szx "repro"
	"repro/service/internal/wire"
	"repro/telemetry"
	"repro/telemetry/trace"
)

// Config tunes a Server. The zero value is serviceable: every field has a
// production-shaped default applied by New.
type Config struct {
	// MaxInFlight caps concurrently executing requests (0 = 2×GOMAXPROCS).
	// This is the knob that keeps a compression service CPU-bound instead
	// of thrash-bound: admitted work never exceeds what the cores can run.
	MaxInFlight int
	// MaxQueue caps requests waiting for an execution slot
	// (0 = 4×MaxInFlight, negative = no queue: shed immediately when busy).
	MaxQueue int
	// QueueWait caps how long a queued request waits before being shed
	// with 429 (0 = 2s).
	QueueWait time.Duration
	// MaxBodyBytes caps buffered request bodies on the non-streaming
	// endpoints (0 = 1 GiB). Streaming endpoints are unbounded by design —
	// their memory use is the pipeline window, not the body size.
	MaxBodyBytes int64
	// DefaultErrorBound applies when a request omits ?e= (0 = 1e-3).
	DefaultErrorBound float64
	// MaxWorkers caps per-request codec parallelism requested via
	// ?workers= (0 = GOMAXPROCS). A single request is never allowed to
	// grab more cores than this, whatever it asks for.
	MaxWorkers int
	// ChunkValues is the SZXS chunk granularity on the streaming endpoints
	// (0 = szx.DefaultChunkValues).
	ChunkValues int
	// MaxBatchArrays caps the array count in one /v1/batch request
	// (0 = 1024). The body-size cap still applies on top; this bounds the
	// positional bookkeeping, not the bytes.
	MaxBatchArrays int
	// StreamParallelism is the pipeline worker count per streaming request
	// (0 = 1). Per-request pipelines stay narrow on purpose: cross-request
	// concurrency comes from MaxInFlight, and a wide pipeline per request
	// would let one stream monopolize the pool.
	StreamParallelism int
	// DisableTracing turns off request-scoped tracing (the zero value keeps
	// it on: per-request span overhead is a handful of clock reads). With
	// tracing on, every request gets a trace honoring an incoming
	// traceparent header, the trace ID comes back in Szx-Trace-Id, and the
	// interesting traces are browsable at GET /debug/requests.
	DisableTracing bool
	// TraceRing is how many finished traces /debug/requests retains
	// (0 = 256).
	TraceRing int
	// TraceSample keeps 1 in TraceSample unremarkable traces (0 = 16;
	// 1 keeps everything; negative keeps only errors and slow requests).
	// Errors and p99-slow requests are always kept regardless.
	TraceSample int
	// AccessLog, when non-nil, receives one structured line per data-plane
	// request (trace ID, endpoint, status, bytes, duration, queue wait,
	// per-stage breakdown). Nil disables access logging.
	AccessLog *slog.Logger
	// NodeID is this instance's identity in GET /v1/cluster/info (empty = a
	// random "szx-xxxxxxxxxxxx" minted at construction). Operators running a
	// cluster set it so peer views stay stable across restarts.
	NodeID string
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 30
	}
	if c.DefaultErrorBound <= 0 {
		c.DefaultErrorBound = 1e-3
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.ChunkValues <= 0 {
		c.ChunkValues = szx.DefaultChunkValues
	}
	if c.MaxBatchArrays <= 0 {
		c.MaxBatchArrays = 1024
	}
	if c.StreamParallelism <= 0 {
		c.StreamParallelism = 1
	}
	return c
}

// Server is the compression service. Construct with New, mount Handler on
// an http.Server (cmd/szxd does exactly this), and call Drain before
// shutting down.
type Server struct {
	cfg    Config
	adm    *admission
	mux    *http.ServeMux
	rec    *trace.Recorder // nil when tracing is disabled
	alog   *slog.Logger    // nil when access logging is disabled
	nodeID string
	start  time.Time
}

// New returns a Server with cfg's zero fields defaulted.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		adm:    newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		alog:   cfg.AccessLog,
		nodeID: cfg.NodeID,
		start:  time.Now(),
	}
	if s.nodeID == "" {
		s.nodeID = newNodeID()
	}
	if !cfg.DisableTracing {
		s.rec = trace.NewRecorder(cfg.TraceRing, cfg.TraceSample)
	}
	telemetry.PublishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compress", s.handleCompress)
	mux.HandleFunc("POST /v1/decompress", s.handleDecompress)
	mux.HandleFunc("POST /v1/stream/compress", s.handleStreamCompress)
	mux.HandleFunc("POST /v1/stream/decompress", s.handleStreamDecompress)
	mux.HandleFunc("POST /v1/batch/compress", s.handleBatchCompress)
	mux.HandleFunc("POST /v1/batch/decompress", s.handleBatchDecompress)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/cluster/info", s.handleClusterInfo)
	mux.Handle("GET /metrics", telemetry.Handler())
	mux.Handle("GET /debug/vars", expvar.Handler())
	if s.rec != nil {
		mux.Handle("GET /debug/requests", s.rec.Handler())
	}
	s.mux = mux
	return s
}

// TraceRecorder returns the server's trace ring, or nil when tracing is
// disabled. Exposed for embedding /debug/requests elsewhere and for tests.
func (s *Server) TraceRecorder() *trace.Recorder { return s.rec }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// BeginDrain flips the server into draining mode: /readyz starts returning
// 503 (so load balancers stop routing here), new requests are refused with
// 503, queued requests are released with 503, and in-flight requests run
// to completion. It does not wait; see Drain.
func (s *Server) BeginDrain() { s.adm.beginDrain() }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.adm.draining() }

// InFlight returns the number of requests currently holding an execution
// slot.
func (s *Server) InFlight() int { return s.adm.inFlight() }

// Drain begins draining (if not already) and blocks until every in-flight
// request has completed or ctx expires. Pair it with http.Server.Shutdown:
// BeginDrain first so the readiness probe flips, give the balancer a beat,
// then Drain + Shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.adm.inFlight() == 0 && s.adm.queueDepth() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// handleHealthz reports process liveness: 200 as long as the handler runs,
// draining or not.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz reports routability: 503 once draining begins so load
// balancers pull this instance before shutdown.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.adm.draining() {
		// Retry-After on the probe itself, not just the data-plane 503s:
		// pollers and routers that only watch readiness learn how long to
		// stop sending without ever parsing a JSON error body.
		w.Header().Set(wire.RetryAfterHeader, wire.FormatRetryAfter(s.cfg.QueueWait))
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	_, _ = w.Write([]byte("ready\n"))
}
