// Package client is the Go client for the szxd compression service. It
// mirrors the in-process szx API shape — Compress/Decompress on value
// slices, streaming variants on readers — over the service's HTTP wire
// protocol, with connection reuse and typed errors that unwrap to the
// same szx sentinels callers already match against.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	szx "repro"
	"repro/internal/wireconv"
	"repro/telemetry/trace"
)

// traceIDHeader mirrors service.TraceIDHeader (the client deliberately
// does not import the server package).
const traceIDHeader = "Szx-Trace-Id"

// Params selects compression options for a request; the zero value uses
// the server's defaults. It is the wire form of szx.Options.
type Params struct {
	ErrorBound  float64  // 0 = server default
	TargetRatio float64  // fixed-ratio mode; mutually exclusive with ErrorBound
	Mode        szx.Mode // BoundAbsolute or BoundRelative
	BlockSize   int      // 0 = server default
	Workers     int      // 0 = serial, -1 = server max, else capped by server
}

func (p Params) query(elem string) url.Values {
	q := url.Values{}
	if elem != "" {
		q.Set("t", elem)
	}
	if p.ErrorBound > 0 {
		q.Set("e", strconv.FormatFloat(p.ErrorBound, 'g', -1, 64))
	}
	if p.TargetRatio > 0 {
		q.Set("ratio", strconv.FormatFloat(p.TargetRatio, 'g', -1, 64))
	}
	if p.Mode == szx.BoundRelative {
		q.Set("mode", "rel")
	}
	if p.BlockSize > 0 {
		q.Set("block", strconv.Itoa(p.BlockSize))
	}
	if p.Workers != 0 {
		q.Set("workers", strconv.Itoa(p.Workers))
	}
	return q
}

// queryString is the encoded form of query(elem), cached: Params is
// comparable and a process uses a handful of distinct parameter sets over
// millions of calls, so encoding each set once removes a url.Values
// allocation (and its string building) from every request.
func (p Params) queryString(elem string) string {
	k := queryKey{p: p, elem: elem}
	if v, ok := queryCache.Load(k); ok {
		return v.(string)
	}
	s := p.query(elem).Encode()
	queryCache.Store(k, s)
	return s
}

type queryKey struct {
	p    Params
	elem string
}

var queryCache sync.Map // queryKey -> string

// Client talks to one szxd instance. It is safe for concurrent use; the
// underlying http.Client pools and reuses connections, so a long-lived
// Client amortizes TCP/TLS setup the same way a pooled Codec amortizes
// buffers.
type Client struct {
	base  string
	hc    *http.Client
	retry *RetryPolicy // nil unless WithRetry
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (custom
// transport, timeout, instrumentation).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a Client for the service at base (e.g. "http://host:8080").
// The default transport keeps idle connections to the one host it talks
// to, sized for the service's typical in-flight cap.
func New(base string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		hc: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        128,
				MaxIdleConnsPerHost: 128,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Error is a non-2xx service response. Unwrap maps the wire code back to
// the szx sentinel errors, so errors.Is(err, szx.ErrCorrupt) works on a
// remote decode failure exactly as on a local one.
type Error struct {
	Status     int           // HTTP status code
	Code       string        // wire error code ("corrupt", "overloaded", ...)
	Message    string        // human-readable detail from the server
	Frame      int           // frame index for streaming-container failures
	Offset     int64         // byte offset for streaming-container failures
	RetryAfter time.Duration // parsed Retry-After hint, 0 if absent
	TraceID    string        // server-assigned trace ID, for /debug/requests lookup
}

func (e *Error) Error() string {
	return fmt.Sprintf("szxd: %s (%d %s)", e.Message, e.Status, e.Code)
}

// Retryable reports whether the request was shed by admission control or
// drain — failures where the same request may succeed on retry (after
// RetryAfter) or on another instance.
func (e *Error) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// Unwrap exposes the szx sentinel matching the wire code, if any.
func (e *Error) Unwrap() error { return sentinelFor(e.Code) }

// sentinelFor maps a wire error code to the matching szx sentinel; request
// level (*Error) and per-array (*ArrayError) failures share the mapping.
func sentinelFor(code string) error {
	switch code {
	case "corrupt":
		return szx.ErrCorrupt
	case "wrong_type":
		return szx.ErrWrongType
	case "bad_options":
		return szx.ErrBadOptions
	}
	return nil
}

// decodeError turns a non-2xx response into an *Error, tolerating
// non-JSON bodies from intermediaries.
func decodeError(resp *http.Response) error {
	e := &Error{Status: resp.StatusCode, Code: "internal", TraceID: resp.Header.Get(traceIDHeader)}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var we struct {
		Code    string `json:"code"`
		Message string `json:"error"`
		Frame   int    `json:"frame"`
		Offset  int64  `json:"offset"`
	}
	if json.Unmarshal(body, &we) == nil && we.Code != "" {
		e.Code, e.Message, e.Frame, e.Offset = we.Code, we.Message, we.Frame, we.Offset
	} else {
		e.Message = strings.TrimSpace(string(body))
		if e.Message == "" {
			e.Message = http.StatusText(resp.StatusCode)
		}
	}
	return e
}

// headerPool recycles request header maps with Content-Type pre-set.
// http.NewRequestWithContext allocates a fresh map per call, which on a
// 4 KiB round trip is measurable overhead; a request's headers are written
// before its response arrives, so the map is safe to reclaim once Do
// returns.
var headerPool = sync.Pool{New: func() any {
	h := make(http.Header, 2)
	h.Set("Content-Type", "application/octet-stream")
	return h
}}

// bodyPool recycles staging buffers for small request bodies, so a warm
// client encodes its floats into reused capacity instead of allocating a
// fresh slice per call.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBody() *bytes.Buffer  { b := bodyPool.Get().(*bytes.Buffer); b.Reset(); return b }
func putBody(b *bytes.Buffer) { bodyPool.Put(b) }
func stageF32(vals []float32) *bytes.Buffer {
	b := getBody()
	b.Grow(4 * len(vals))
	b.Write(wireconv.AppendF32(b.AvailableBuffer(), vals))
	return b
}

func stageF64(vals []float64) *bytes.Buffer {
	b := getBody()
	b.Grow(8 * len(vals))
	b.Write(wireconv.AppendF64(b.AvailableBuffer(), vals))
	return b
}

// maxPresize caps how much of a response's Content-Length readBody
// allocates before any bytes arrive. An 8 MiB payload still lands in one
// allocation; a larger or forged length grows the buffer only as the body
// actually delivers bytes.
const maxPresize = 64 << 20

// readBody slurps a response body into a buffer pre-sized from
// Content-Length (szxd always sets it), so large responses skip
// io.ReadAll's doubling growth.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 {
		return io.ReadAll(resp.Body)
	}
	buf := bytes.NewBuffer(make([]byte, 0, min(n, maxPresize)+1))
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// post sends one data-plane request. With WithRetry configured and a
// replayable body, shed responses (429/503) and transport failures are
// retried with jittered backoff, honoring Retry-After and the context
// deadline; streaming bodies get exactly one attempt.
func (c *Client) post(ctx context.Context, path, rawQuery string, body io.Reader) (*http.Response, error) {
	if c.retry == nil || !rewindable(body) {
		return c.postOnce(ctx, path, rawQuery, body)
	}
	p := *c.retry
	for attempt := 1; ; attempt++ {
		resp, err := c.postOnce(ctx, path, rawQuery, body)
		if err == nil || attempt >= p.MaxAttempts || !IsRetryable(err) {
			return resp, err
		}
		if s, ok := body.(io.Seeker); ok {
			if _, serr := s.Seek(0, io.SeekStart); serr != nil {
				return nil, err
			}
		}
		if serr := sleepRetry(ctx, retryDelay(p, attempt, retryAfterOf(err))); serr != nil {
			// Deadline or cancellation during backoff: the shed error, not
			// the sleep's, is the informative one.
			return nil, err
		}
	}
}

func (c *Client) postOnce(ctx context.Context, path, rawQuery string, body io.Reader) (*http.Response, error) {
	u := c.base + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, body)
	if err != nil {
		return nil, err
	}
	h := headerPool.Get().(http.Header)
	req.Header = h
	// A trace travelling in ctx rides the wire as a traceparent header, so
	// the server adopts the caller's trace ID and the round trip shows up
	// on the caller's trace as one client-side span.
	tr := trace.FromContext(ctx)
	if tr != nil {
		h.Set("Traceparent", tr.Traceparent())
	}
	sp := tr.StartSpan("client:" + strings.TrimPrefix(path, "/v1/"))
	resp, err := c.hc.Do(req)
	sp.End()
	h.Del("Traceparent")
	headerPool.Put(h)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

// Compress sends vals to the service and returns the SZx stream.
func (c *Client) Compress(ctx context.Context, vals []float32, p Params) ([]byte, error) {
	body := stageF32(vals)
	defer putBody(body)
	resp, err := c.post(ctx, "/v1/compress", p.queryString("f32"), bytes.NewReader(body.Bytes()))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return readBody(resp)
}

// CompressFloat64 is Compress for float64 payloads.
func (c *Client) CompressFloat64(ctx context.Context, vals []float64, p Params) ([]byte, error) {
	body := stageF64(vals)
	defer putBody(body)
	resp, err := c.post(ctx, "/v1/compress", p.queryString("f64"), bytes.NewReader(body.Bytes()))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return readBody(resp)
}

// Decompress sends a compressed stream (single SZx stream or SZXS
// container, the server auto-detects) and returns the float32 values.
func (c *Client) Decompress(ctx context.Context, comp []byte) ([]float32, error) {
	resp, err := c.post(ctx, "/v1/decompress", "", bytes.NewReader(comp))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("szxd: truncated response (%d bytes)", len(raw))
	}
	return bytesToF32(raw), nil
}

// DecompressFloat64 is Decompress for float64 streams.
func (c *Client) DecompressFloat64(ctx context.Context, comp []byte) ([]float64, error) {
	resp, err := c.post(ctx, "/v1/decompress", "", bytes.NewReader(comp))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if len(raw)%8 != 0 {
		return nil, fmt.Errorf("szxd: truncated response (%d bytes)", len(raw))
	}
	return bytesToF64(raw), nil
}

// StreamCompress uploads raw little-endian float32 bytes from r and
// returns a reader over the SZXS container the server produces. Both
// directions stream: neither side buffers the whole payload. The caller
// must Close the returned reader.
func (c *Client) StreamCompress(ctx context.Context, r io.Reader, p Params) (io.ReadCloser, error) {
	resp, err := c.post(ctx, "/v1/stream/compress", p.queryString(""), r)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// StreamDecompress uploads an SZXS container from r and returns a reader
// over the raw little-endian float32 bytes. The caller must Close the
// returned reader; a server-side mid-stream failure surfaces as a
// truncated body.
func (c *Client) StreamDecompress(ctx context.Context, r io.Reader) (io.ReadCloser, error) {
	resp, err := c.post(ctx, "/v1/stream/decompress", "", r)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// Ready probes /readyz; nil means the instance is accepting work (not
// draining).
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return nil
}

func bytesToF32(b []byte) []float32 { return wireconv.F32(nil, b) }

func bytesToF64(b []byte) []float64 { return wireconv.F64(nil, b) }
