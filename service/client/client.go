// Package client is the Go client for the szxd compression service. It
// follows the in-process szx API shape — Compress/Decompress on value
// slices, streaming variants on readers — over the service's HTTP wire
// protocol, with connection reuse and typed errors that unwrap to the
// same szx sentinels callers already match against.
package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/wireconv"
	"repro/service/internal/wire"
	"repro/telemetry/trace"
)

// Params selects compression options for a request; it is the wire form of
// szx.Options. A zero field means the server's default. Any other invalid
// value fails with a 400, as the same szx.Options fail in-process.
type Params = wire.Params

// queryString is p's query string for element type elem, cached: Params
// is comparable and a process uses a handful of distinct parameter sets
// over millions of calls, so encoding each set once removes a url.Values
// allocation (and its string building) from every request.
func queryString(p Params, elem string) string {
	k := queryKey{p: p, elem: elem}
	if v, ok := queryCache.Load(k); ok {
		return v.(string)
	}
	s := p.Encode(elem)
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
	base string
	hc   *http.Client
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
func (e *Error) Unwrap() error { return wire.Sentinel(e.Code) }

// decodeError turns a non-2xx response into an *Error, tolerating
// non-JSON bodies from intermediaries.
func decodeError(resp *http.Response) error {
	e := &Error{
		Status:     resp.StatusCode,
		Code:       wire.CodeInternal,
		RetryAfter: wire.ParseRetryAfter(resp.Header.Get(wire.RetryAfterHeader)),
		TraceID:    resp.Header.Get(wire.TraceIDHeader),
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if we, ok := wire.ParseError(body); ok {
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

// bodyPool recycles staging buffers for request bodies, so a warm client
// encodes its floats into reused capacity instead of allocating a fresh
// slice per call.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

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

// reqBody is one request's in-memory body. An http.RoundTripper
// may keep reading a request body after Do returns, until it calls Close,
// so the bytes behind it are reused only once closed is.
type reqBody struct {
	bytes.Reader
	closed chan struct{}
	once   sync.Once
}

func (b *reqBody) Close() error {
	b.once.Do(func() { close(b.closed) })
	return nil
}

// do posts an in-memory payload once and returns the whole response body.
// The request reads its own reader over payload, and do returns only once
// the transport has closed it, so the caller may reuse payload; staged, if
// not nil, holds payload and goes back to bodyPool then. If ctx ends first
// the transport may still be reading, and staged is dropped. A Client
// never retries: ClusterClient retries across nodes.
func (c *Client) do(ctx context.Context, path, rawQuery string, payload []byte, staged *[]byte) (out []byte, err error) {
	req, err := c.newRequest(ctx, path, rawQuery, nil)
	if err != nil {
		return nil, err
	}
	var body *reqBody
	if len(payload) > 0 {
		body = &reqBody{closed: make(chan struct{})}
		body.Reset(payload)
		req.Body, req.ContentLength = body, int64(len(payload))
	}
	resp, err := c.send(req)
	if err == nil {
		out, err = readBody(resp)
		resp.Body.Close()
	}
	if body != nil {
		select {
		case <-body.closed:
		case <-ctx.Done():
			return out, err // the transport may still be reading: drop staged
		}
	}
	if staged != nil {
		bodyPool.Put(staged)
	}
	return out, err
}

// stream posts a streaming body, with no wait for the transport, since
// both directions flow at once.
func (c *Client) stream(ctx context.Context, path, rawQuery string, r io.Reader) (io.ReadCloser, error) {
	req, err := c.newRequest(ctx, path, rawQuery, r)
	if err != nil {
		return nil, err
	}
	resp, err := c.send(req)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

func (c *Client) newRequest(ctx context.Context, path, rawQuery string, body io.Reader) (*http.Request, error) {
	u := c.base + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	return http.NewRequestWithContext(ctx, http.MethodPost, u, body)
}

// send runs one request; a nil error means a 200 response.
func (c *Client) send(req *http.Request) (*http.Response, error) {
	h := headerPool.Get().(http.Header)
	req.Header = h
	// A trace travelling in ctx rides the wire as a traceparent header, so
	// the server adopts the caller's trace ID and the round trip shows up
	// on the caller's trace as one client-side span.
	tr := trace.FromContext(req.Context())
	if tr != nil {
		h.Set(wire.TraceparentHeader, tr.Traceparent())
	}
	sp := tr.StartSpan("client:" + strings.TrimPrefix(req.URL.Path, "/v1/"))
	resp, err := c.hc.Do(req)
	sp.End()
	h.Del(wire.TraceparentHeader)
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

// compress stages vals in a pooled buffer and sends them.
func compress[T wireconv.Float](ctx context.Context, c *Client, vals []T, elem string, p Params) ([]byte, error) {
	staged := bodyPool.Get().(*[]byte)
	*staged = wireconv.Append((*staged)[:0], vals)
	return c.do(ctx, "/v1/compress", queryString(p, elem), *staged, staged)
}

// decompress sends a compressed stream and decodes the values back.
func decompress[T wireconv.Float](ctx context.Context, c *Client, comp []byte) ([]T, error) {
	raw, err := c.do(ctx, "/v1/decompress", "", comp, nil)
	if err != nil {
		return nil, err
	}
	if len(raw)%wireconv.Size[T]() != 0 {
		return nil, fmt.Errorf("szxd: truncated response (%d bytes)", len(raw))
	}
	return wireconv.Values[T](nil, raw), nil
}

// Compress sends vals to the service and returns the SZx stream.
func (c *Client) Compress(ctx context.Context, vals []float32, p Params) ([]byte, error) {
	return compress(ctx, c, vals, wire.ElemF32, p)
}

// CompressFloat64 is Compress for float64 payloads.
func (c *Client) CompressFloat64(ctx context.Context, vals []float64, p Params) ([]byte, error) {
	return compress(ctx, c, vals, wire.ElemF64, p)
}

// Decompress sends a compressed stream (single SZx stream or SZXS
// container, the server auto-detects) and returns the float32 values.
func (c *Client) Decompress(ctx context.Context, comp []byte) ([]float32, error) {
	return decompress[float32](ctx, c, comp)
}

// DecompressFloat64 is Decompress for float64 streams.
func (c *Client) DecompressFloat64(ctx context.Context, comp []byte) ([]float64, error) {
	return decompress[float64](ctx, c, comp)
}

// StreamCompress uploads raw little-endian float32 bytes from r and
// returns a reader over the SZXS container the server produces. Both
// directions stream: neither side buffers the whole payload. The caller
// must Close the returned reader.
func (c *Client) StreamCompress(ctx context.Context, r io.Reader, p Params) (io.ReadCloser, error) {
	return c.stream(ctx, "/v1/stream/compress", queryString(p, ""), r)
}

// StreamDecompress uploads an SZXS container from r and returns a reader
// over the raw little-endian float32 bytes. The caller must Close the
// returned reader; a server-side mid-stream failure surfaces as a
// truncated body.
func (c *Client) StreamDecompress(ctx context.Context, r io.Reader) (io.ReadCloser, error) {
	return c.stream(ctx, "/v1/stream/decompress", "", r)
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
