package service_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	szx "repro"
	"repro/service"
	"repro/service/client"
	"repro/telemetry"
)

// testField synthesizes a smooth field, the shape the codec is built for.
func testField(n int, seed int64) []float32 {
	out := make([]float32, n)
	for i := range out {
		x := float64(i) * 0.01
		out[i] = float32(math.Sin(x+float64(seed)) + 0.2*math.Cos(3*x))
	}
	return out
}

func f32Bytes(v []float32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
	}
	return out
}

func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *client.Client, string) {
	t.Helper()
	srv := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, client.New(ts.URL), ts.URL
}

func TestServiceRoundTripFloat32(t *testing.T) {
	_, c, _ := newTestServer(t, service.Config{})
	ctx := context.Background()
	vals := testField(50_000, 1)

	comp, err := c.Compress(ctx, vals, client.Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= 4*len(vals) {
		t.Fatalf("no compression: %d bytes for %d values", len(comp), len(vals))
	}
	// The service stream must be a perfectly ordinary SZx stream.
	local, err := szx.Decompress(comp)
	if err != nil {
		t.Fatalf("service output not locally decodable: %v", err)
	}
	got, err := c.Decompress(ctx, comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) || len(local) != len(vals) {
		t.Fatalf("length mismatch: %d / %d, want %d", len(got), len(local), len(vals))
	}
	for i := range vals {
		if math.Abs(float64(got[i])-float64(vals[i])) > 1e-3*1.0001 {
			t.Fatalf("value %d out of bound: %v vs %v", i, got[i], vals[i])
		}
		if got[i] != local[i] {
			t.Fatalf("remote and local decode disagree at %d", i)
		}
	}
}

func TestServiceRoundTripFloat64(t *testing.T) {
	_, c, _ := newTestServer(t, service.Config{})
	ctx := context.Background()
	vals := make([]float64, 20_000)
	for i := range vals {
		vals[i] = math.Sin(float64(i) * 0.001)
	}
	comp, err := c.CompressFloat64(ctx, vals, client.Params{ErrorBound: 1e-6, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecompressFloat64(ctx, comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("length mismatch: %d want %d", len(got), len(vals))
	}
	for i := range vals {
		if math.Abs(got[i]-vals[i]) > 1e-6*1.0001 {
			t.Fatalf("value %d out of bound: %v vs %v", i, got[i], vals[i])
		}
	}
}

func TestServiceStreamRoundTrip(t *testing.T) {
	_, c, _ := newTestServer(t, service.Config{ChunkValues: 4096, StreamParallelism: 2})
	ctx := context.Background()
	vals := testField(100_000, 2)
	raw := f32Bytes(vals)

	rc, err := c.StreamCompress(ctx, bytes.NewReader(raw), client.Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	container, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The container must be readable by the library's own stream reader.
	if _, err := szx.NewReader(bytes.NewReader(container)).ReadAll(); err != nil {
		t.Fatalf("service container not locally readable: %v", err)
	}

	rc, err = c.StreamDecompress(ctx, bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	rawOut, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rawOut) != len(raw) {
		t.Fatalf("stream round trip length: %d want %d", len(rawOut), len(raw))
	}
	for i := 0; i < len(rawOut); i += 4 {
		got := math.Float32frombits(binary.LittleEndian.Uint32(rawOut[i:]))
		if math.Abs(float64(got)-float64(vals[i/4])) > 1e-3*1.0001 {
			t.Fatalf("value %d out of bound: %v vs %v", i/4, got, vals[i/4])
		}
	}
}

// TestServiceDecompressAutoDetect feeds /v1/decompress an SZXS container
// (not a single stream) and expects it to notice and unpack it.
func TestServiceDecompressAutoDetect(t *testing.T) {
	_, c, _ := newTestServer(t, service.Config{})
	vals := testField(10_000, 3)
	var buf bytes.Buffer
	w := szx.NewWriter(&buf, szx.Options{ErrorBound: 1e-3}, 1024)
	if err := w.Write(vals); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress(context.Background(), buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("length %d want %d", len(got), len(vals))
	}
}

func TestServiceCorruptInputIsClean4xx(t *testing.T) {
	_, c, baseURL := newTestServer(t, service.Config{})
	ctx := context.Background()

	_, err := c.Decompress(ctx, []byte("this is not a compressed stream"))
	var se *client.Error
	if !errors.As(err, &se) {
		t.Fatalf("want *client.Error, got %v", err)
	}
	if se.Status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", se.Status)
	}
	if !errors.Is(err, szx.ErrCorrupt) {
		t.Fatalf("corrupt-stream error should unwrap to szx.ErrCorrupt, got %v", err)
	}

	// A truncated SZXS container must also come back 4xx with frame context.
	vals := testField(5_000, 4)
	var buf bytes.Buffer
	w := szx.NewWriter(&buf, szx.Options{ErrorBound: 1e-3}, 512)
	_ = w.Write(vals)
	_ = w.Close()
	_, err = c.Decompress(ctx, buf.Bytes()[:buf.Len()/2])
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("truncated container: want 400, got %v", err)
	}

	// Bad parameters are bad_options, as in-process, not corrupt.
	resp, err := http.Post(baseURL+"/v1/compress?e=-1", "application/octet-stream",
		bytes.NewReader(f32Bytes(vals[:64])))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative bound: status %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(body, []byte(`"bad_options"`)) {
		t.Fatalf("negative bound: body %s missing bad_options code", body)
	}
}

// holdRequest starts a /v1/compress request whose body stays open, pinning
// one execution slot, and waits until the server reports `want` in flight.
// The returned release func completes the request; it is idempotent, so
// deferring it alongside an explicit call is safe.
func holdRequest(t *testing.T, baseURL string, srv *service.Server, want int) (release func()) {
	t.Helper()
	pr, pw := io.Pipe()
	errCh := make(chan error, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/compress", pr)
		if err != nil {
			errCh <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	// A few payload bytes so the held request is a valid (non-empty) body.
	if _, err := pw.Write(f32Bytes(testField(16, 9))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() < want {
		if time.Now().After(deadline) {
			t.Fatalf("request never admitted: in-flight %d, want %d", srv.InFlight(), want)
		}
		time.Sleep(time.Millisecond)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			pw.Close()
			if err := <-errCh; err != nil {
				t.Errorf("held request failed: %v", err)
			}
		})
	}
}

func TestServiceOverloadSheds429(t *testing.T) {
	telemetry.Reset()
	srv := service.New(service.Config{MaxInFlight: 1, MaxQueue: 1, QueueWait: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)

	release := holdRequest(t, ts.URL, srv, 1)
	defer release()

	// Fill the one queue slot with a second held request.
	qr, qw := io.Pipe()
	qDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/compress", qr)
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		qDone <- err
	}()
	if _, err := qw.Write(f32Bytes(testField(16, 10))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for telemetry.ServiceQueueDepth.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue is now full: the next request must be shed immediately.
	start := time.Now()
	_, err := c.Compress(context.Background(), testField(64, 11), client.Params{})
	elapsed := time.Since(start)
	var se *client.Error
	if !errors.As(err, &se) {
		t.Fatalf("want *client.Error, got %v", err)
	}
	if se.Status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", se.Status)
	}
	if !se.Retryable() {
		t.Fatal("429 must be Retryable")
	}
	if se.RetryAfter <= 0 {
		t.Fatal("429 must carry Retry-After")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("shed took %v; queue-full rejection must not wait", elapsed)
	}
	if telemetry.ServiceRejectedQueueFull.Load() == 0 {
		t.Fatal("queue-full rejection not counted")
	}

	// Unwind: release the in-flight request, then the queued one drains too.
	release()
	qw.Close()
	if err := <-qDone; err != nil {
		t.Errorf("queued request failed: %v", err)
	}
}

func TestServiceMidRequestCancellation(t *testing.T) {
	telemetry.Reset()
	srv := service.New(service.Config{ChunkValues: 1024, StreamParallelism: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)

	// Warm up a connection, then measure the goroutine baseline.
	if _, err := c.Compress(context.Background(), testField(64, 5), client.Params{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	errCh := make(chan error, 1)
	go func() {
		rc, err := c.StreamCompress(ctx, pr, client.Params{ErrorBound: 1e-3})
		if err == nil {
			_, err = io.Copy(io.Discard, rc)
			rc.Close()
		}
		errCh <- err
	}()
	// Feed a few chunks so the pipeline is genuinely mid-flight, then hang up.
	chunk := f32Bytes(testField(4096, 6))
	for i := 0; i < 4; i++ {
		if _, err := pw.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	// Unblock the transport's body-copy goroutine: Do cannot return from a
	// cancelled round trip while the request body read is still pending.
	pw.CloseWithError(context.Canceled)
	if err := <-errCh; err == nil {
		t.Fatal("cancelled stream reported success")
	}

	// The server side must unwind completely: slot released, pipeline
	// goroutines joined.
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight stuck at %d after cancel", srv.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
	waitGoroutines(t, baseline)
}

func TestServiceGracefulDrain(t *testing.T) {
	telemetry.Reset()
	srv := service.New(service.Config{MaxInFlight: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)

	release := holdRequest(t, ts.URL, srv, 1)

	if err := c.Ready(context.Background()); err != nil {
		t.Fatalf("ready before drain: %v", err)
	}
	srv.BeginDrain()
	if err := c.Ready(context.Background()); err == nil {
		t.Fatal("readyz must fail once draining")
	}

	// New work is refused with 503 draining while the held request runs on.
	_, err := c.Compress(context.Background(), testField(64, 7), client.Params{})
	var se *client.Error
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("during drain: want 503, got %v", err)
	}
	if !se.Retryable() {
		t.Fatal("503 during drain must be Retryable")
	}
	if srv.InFlight() != 1 {
		t.Fatalf("drain must not kill in-flight work (in-flight = %d)", srv.InFlight())
	}

	// Finish the held request; Drain must then return promptly.
	go func() {
		time.Sleep(50 * time.Millisecond)
		release()
	}()
	ctx, cancelDrain := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelDrain()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if srv.InFlight() != 0 {
		t.Fatalf("in-flight after drain: %d", srv.InFlight())
	}
	if telemetry.ServiceRejectedDraining.Load() == 0 {
		t.Fatal("draining rejection not counted")
	}
}

// TestServiceMetricsExposed checks that a round trip shows up on /metrics.
func TestServiceMetricsExposed(t *testing.T) {
	telemetry.Reset()
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)

	comp, err := c.Compress(context.Background(), testField(1000, 8), client.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress(context.Background(), comp); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`szx_service_requests_total{endpoint="compress"} 1`,
		`szx_service_requests_total{endpoint="decompress"} 1`,
		`szx_service_bytes_in_total`,
		`szx_service_in_flight 0`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// waitGoroutines polls until the goroutine count settles back to the
// baseline (same helper the pipeline leak tests use).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, baseline,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServiceFixedRatio(t *testing.T) {
	_, c, _ := newTestServer(t, service.Config{})
	ctx := context.Background()
	vals := testField(50_000, 3)

	comp, err := c.Compress(ctx, vals, client.Params{TargetRatio: 6})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(4*len(vals)) / float64(len(comp))
	if ratio < 4 || ratio > 9 {
		t.Fatalf("achieved ratio %.2f nowhere near target 6", ratio)
	}
	// The converged bound is recorded in the stream header.
	h, err := szx.Info(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !(h.ErrBound > 0) {
		t.Fatalf("stream carries no effective bound: %v", h.ErrBound)
	}
	got, err := c.Decompress(ctx, comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Abs(float64(got[i])-float64(vals[i])) > h.ErrBound*1.0001 {
			t.Fatalf("value %d breaks the recorded bound %g: %v vs %v", i, h.ErrBound, got[i], vals[i])
		}
	}
}

func TestServiceFixedRatioStream(t *testing.T) {
	_, c, _ := newTestServer(t, service.Config{ChunkValues: 8192})
	ctx := context.Background()
	vals := testField(60_000, 5)

	rc, err := c.StreamCompress(ctx, bytes.NewReader(f32Bytes(vals)), client.Params{TargetRatio: 5})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	sr := szx.NewReader(bytes.NewReader(comp))
	got := make([]float32, 0, len(vals))
	buf := make([]float32, 4096)
	for {
		n, rerr := sr.Read(buf)
		got = append(got, buf[:n]...)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
	}
	if len(got) != len(vals) {
		t.Fatalf("stream roundtrip length %d want %d", len(got), len(vals))
	}
	ratio := float64(4*len(vals)) / float64(len(comp))
	if ratio < 3 || ratio > 8 {
		t.Fatalf("streamed ratio %.2f nowhere near target 5", ratio)
	}
}

func TestServiceBadOptionsIs400(t *testing.T) {
	_, c, base := newTestServer(t, service.Config{})
	ctx := context.Background()
	vals := testField(1024, 9)

	// Sub-1 ratio: rejected by szx validation, surfaced as bad_options and
	// unwrapped by the client back to the szx sentinel.
	_, err := c.Compress(ctx, vals, client.Params{TargetRatio: 0.5})
	if err == nil {
		t.Fatal("ratio 0.5 accepted")
	}
	var se *client.Error
	if !errors.As(err, &se) {
		t.Fatalf("error %T is not *client.Error", err)
	}
	if se.Status != http.StatusBadRequest || se.Code != "bad_options" {
		t.Fatalf("got status %d code %q, want 400 bad_options", se.Status, se.Code)
	}
	if !errors.Is(err, szx.ErrBadOptions) {
		t.Fatalf("client error does not unwrap to szx.ErrBadOptions: %v", err)
	}

	// ratio + explicit bound conflict is caught at parse time.
	resp, err := http.Post(base+"/v1/compress?ratio=4&e=1e-3", "application/octet-stream",
		bytes.NewReader(f32Bytes(vals)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ratio+e conflict: got %d want 400", resp.StatusCode)
	}

	// Streaming endpoint rejects bad options with a clean 400 before any
	// container bytes flow.
	resp, err = http.Post(base+"/v1/stream/compress?ratio=0.5", "application/octet-stream",
		bytes.NewReader(f32Bytes(vals)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stream bad ratio: got %d want 400", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/json; charset=utf-8" {
		t.Fatalf("stream bad ratio: content type %q, want JSON error body", got)
	}
}

// TestInvalidParamsAre400: an invalid client.Params fails remotely as it
// does in-process, on every endpoint that takes options, instead of being
// replaced by the server's defaults. Zero still means "server default".
func TestInvalidParamsAre400(t *testing.T) {
	_, c, _ := newTestServer(t, service.Config{})
	ctx := context.Background()
	vals := testField(1024, 3)
	for _, tc := range []struct {
		p    client.Params
		want error // the in-process error for the same options
	}{
		{client.Params{ErrorBound: -1}, szx.ErrBadOptions},
		{client.Params{TargetRatio: -3}, szx.ErrBadOptions},
		{client.Params{BlockSize: -8}, szx.ErrBlockSize},
	} {
		opt := szx.Options{ErrorBound: tc.p.ErrorBound, TargetRatio: tc.p.TargetRatio, BlockSize: tc.p.BlockSize}
		if opt.ErrorBound == 0 && opt.TargetRatio == 0 {
			opt.ErrorBound = 1e-3 // the server's default bound
		}
		if _, err := szx.Compress(vals, opt); !errors.Is(err, tc.want) {
			t.Fatalf("%+v in-process: got %v, want %v", tc.p, err, tc.want)
		}
		_, oneShot := c.Compress(ctx, vals, tc.p)
		_, batch := c.CompressBatch(ctx, [][]float32{vals}, tc.p)
		rc, stream := c.StreamCompress(ctx, bytes.NewReader(f32Bytes(vals)), tc.p)
		if rc != nil {
			rc.Close()
		}
		for name, err := range map[string]error{"one-shot": oneShot, "batch": batch, "stream": stream} {
			var se *client.Error
			if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
				t.Errorf("%+v %s: got %v, want a 400", tc.p, name, err)
				continue
			}
			if tc.want == szx.ErrBadOptions && !errors.Is(err, szx.ErrBadOptions) {
				t.Errorf("%+v %s: %v does not unwrap to szx.ErrBadOptions", tc.p, name, err)
			}
		}
	}
}
