package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/service"
	"repro/service/client"
	"repro/telemetry"
	"repro/telemetry/trace"
)

// syncBuf is a goroutine-safe bytes.Buffer for capturing slog output
// written from handler goroutines.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// tracePage mirrors the /debug/requests JSON shape.
type tracePage struct {
	Offered int64        `json:"offered"`
	Kept    int64        `json:"kept"`
	Traces  []trace.View `json:"traces"`
}

func fetchTrace(t *testing.T, baseURL, id string) (trace.View, bool) {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/requests?trace_id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return trace.View{}, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests: status %d", resp.StatusCode)
	}
	var page tracePage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if len(page.Traces) != 1 {
		t.Fatalf("trace_id lookup returned %d traces", len(page.Traces))
	}
	return page.Traces[0], true
}

// TestServiceTraceEndToEnd is the tracing acceptance test: a request sent
// through the client with a caller-supplied trace ID must yield a
// /debug/requests entry under that same ID whose non-overlapping spans
// (queue wait, body read, unpack, plan, encode, response write) account
// for at least 90% of the server-measured request latency, and the same
// trace ID must appear in the structured access-log line.
func TestServiceTraceEndToEnd(t *testing.T) {
	telemetry.Reset()
	var logBuf syncBuf
	_, c, baseURL := newTestServer(t, service.Config{
		TraceSample: 1, // keep every trace: no sampling flakiness
		AccessLog:   slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})

	// ~8 MiB payload so codec work dominates and per-span jitter is noise.
	vals := testField(2<<20, 3)
	tr := trace.New("caller-op")
	ctx := trace.NewContext(context.Background(), tr)
	comp, err := c.Compress(ctx, vals, client.Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) == 0 {
		t.Fatal("empty compressed payload")
	}

	// The caller-side trace saw the round trip as one client span.
	if tr.SpanDur("client:compress") <= 0 {
		t.Fatal("client did not record its round-trip span on the caller trace")
	}

	// The handler finishes the trace in a deferred end() that can lag the
	// client's return by a scheduling beat; the access-log line is written
	// after the trace is offered to the ring, so poll for it.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(logBuf.String(), tr.ID()) {
		if time.Now().After(deadline) {
			t.Fatalf("trace ID %s never appeared in the access log:\n%s", tr.ID(), logBuf.String())
		}
		time.Sleep(time.Millisecond)
	}
	logLine := logBuf.String()
	for _, want := range []string{`"trace_id":"` + tr.ID() + `"`, `"endpoint":"compress"`, `"status":200`, `"stages":`} {
		if !strings.Contains(logLine, want) {
			t.Errorf("access log missing %s:\n%s", want, logLine)
		}
	}

	v, ok := fetchTrace(t, baseURL, tr.ID())
	if !ok {
		t.Fatalf("trace %s not retained at TraceSample=1", tr.ID())
	}
	if v.TraceID != tr.ID() {
		t.Fatalf("retained trace ID = %s, want %s", v.TraceID, tr.ID())
	}
	if v.Name != "compress" || v.Status != 200 {
		t.Fatalf("trace view endpoint/status = %s/%d", v.Name, v.Status)
	}
	if v.BytesIn != int64(4*len(vals)) {
		t.Fatalf("bytes_in = %d, want %d", v.BytesIn, 4*len(vals))
	}
	if v.BytesOut != int64(len(comp)) {
		t.Fatalf("bytes_out = %d, want %d", v.BytesOut, len(comp))
	}
	// The server adopted the client's trace ID via traceparent, so the
	// parent span ID must be recorded too.
	if len(v.ParentSpan) != 16 {
		t.Fatalf("parent span ID = %q, want 16 hex digits", v.ParentSpan)
	}

	// Latency attribution: the sequential span set must cover the request.
	sequential := map[string]bool{
		"queue_wait": true, "read_body": true, "unpack_body": true,
		"resolve_plan": true, "encode": true, "encode_phase": true,
		"gather_phase": true, "write_response": true,
	}
	var sum int64
	seen := map[string]bool{}
	for _, s := range v.Spans {
		if sequential[s.Name] {
			sum += int64(s.Dur)
		}
		seen[s.Name] = true
	}
	for _, must := range []string{"queue_wait", "read_body", "resolve_plan", "write_response"} {
		if !seen[must] {
			t.Errorf("span %q missing (have %v)", must, v.Spans)
		}
	}
	if !seen["encode"] && !seen["encode_phase"] {
		t.Errorf("no codec encode span recorded (have %v)", v.Spans)
	}
	if v.DurNs <= 0 {
		t.Fatalf("trace duration %d", v.DurNs)
	}
	if cover := float64(sum) / float64(v.DurNs); cover < 0.90 || cover > 1.001 {
		t.Fatalf("spans cover %.1f%% of the request (%s of %s); want within 10%%",
			100*cover, time.Duration(sum), time.Duration(v.DurNs))
	}
}

// TestServiceTraceparentAdoption pins the wire format: a well-formed
// incoming traceparent is adopted (same trace ID back in Szx-Trace-Id), a
// malformed one gets a fresh ID rather than an error.
func TestServiceTraceparentAdoption(t *testing.T) {
	telemetry.Reset()
	_, _, baseURL := newTestServer(t, service.Config{})

	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest(http.MethodPost, baseURL+"/v1/compress",
		bytes.NewReader(f32Bytes(testField(64, 1))))
	req.Header.Set("Traceparent", "00-"+tid+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Szx-Trace-Id"); got != tid {
		t.Fatalf("Szx-Trace-Id = %q, want adopted %q", got, tid)
	}

	req, _ = http.NewRequest(http.MethodPost, baseURL+"/v1/compress",
		bytes.NewReader(f32Bytes(testField(64, 1))))
	req.Header.Set("Traceparent", "garbage")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	got := resp.Header.Get("Szx-Trace-Id")
	if len(got) != 32 || got == tid {
		t.Fatalf("malformed traceparent: Szx-Trace-Id = %q, want fresh 32-hex ID", got)
	}
}

// TestServiceTracingDisabled checks the off switch: no trace header, no
// /debug/requests endpoint.
func TestServiceTracingDisabled(t *testing.T) {
	telemetry.Reset()
	srv, c, baseURL := newTestServer(t, service.Config{DisableTracing: true})
	if srv.TraceRecorder() != nil {
		t.Fatal("recorder must be nil with tracing disabled")
	}
	if _, err := c.Compress(context.Background(), testField(256, 2), client.Params{}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/compress?e=1e-3", "application/octet-stream",
		bytes.NewReader(f32Bytes(testField(64, 1))))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if h := resp.Header.Get("Szx-Trace-Id"); h != "" {
		t.Fatalf("Szx-Trace-Id = %q with tracing disabled", h)
	}
	resp, err = http.Get(baseURL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/requests with tracing disabled: %d, want 404", resp.StatusCode)
	}
}

// TestServiceStreamTraceHasPipeFrames checks the streaming path: the
// pipelined engine must attribute per-frame slot occupancy to the request
// trace it finds in the context.
func TestServiceStreamTraceHasPipeFrames(t *testing.T) {
	telemetry.Reset()
	_, c, baseURL := newTestServer(t, service.Config{
		ChunkValues: 4096, StreamParallelism: 2, TraceSample: 1,
	})
	vals := testField(64_000, 4)
	tr := trace.New("stream-op")
	ctx := trace.NewContext(context.Background(), tr)
	rc, err := c.StreamCompress(ctx, bytes.NewReader(f32Bytes(vals)), client.Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, rc); err != nil {
		t.Fatal(err)
	}
	rc.Close()

	var v trace.View
	deadline := time.Now().Add(5 * time.Second)
	for {
		var ok bool
		if v, ok = fetchTrace(t, baseURL, tr.ID()); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream trace %s never retained", tr.ID())
		}
		time.Sleep(time.Millisecond)
	}
	frames := 0
	for _, s := range v.Spans {
		if s.Name == "pipe_frame" {
			frames++
		}
	}
	// 64k values at 4096/chunk = 16 frames.
	if frames != 16 {
		t.Fatalf("pipe_frame spans = %d, want 16 (spans: %v)", frames, v.Spans)
	}
	if v.Name != "stream_compress" {
		t.Fatalf("endpoint = %q", v.Name)
	}
}

// TestAdmissionGaugeSymmetry drives every admission outcome — happy path,
// queue-full 429, wait-timeout 429, draining 503, client-cancelled 499 —
// and asserts the queue-depth and in-flight gauges return to exactly zero
// afterwards: no denial path may leak a gauge increment.
func TestAdmissionGaugeSymmetry(t *testing.T) {
	waitZeroGauges := func(t *testing.T) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for telemetry.ServiceQueueDepth.Load() != 0 || telemetry.ServiceInFlight.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("gauges stuck: queue_depth=%d in_flight=%d",
					telemetry.ServiceQueueDepth.Load(), telemetry.ServiceInFlight.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}

	cases := []struct {
		name    string
		cfg     service.Config
		rejects *telemetry.Counter // incremented by the scenario's denial, nil for happy path
		run     func(t *testing.T, srv *service.Server, c *client.Client, baseURL string)
	}{
		{
			name: "happy",
			cfg:  service.Config{},
			run: func(t *testing.T, _ *service.Server, c *client.Client, _ string) {
				if _, err := c.Compress(context.Background(), testField(4096, 20), client.Params{}); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name:    "queue_full_429",
			cfg:     service.Config{MaxInFlight: 1, MaxQueue: -1, QueueWait: 10 * time.Second},
			rejects: &telemetry.ServiceRejectedQueueFull,
			run: func(t *testing.T, srv *service.Server, c *client.Client, baseURL string) {
				release := holdRequest(t, baseURL, srv, 1)
				defer release()
				_, err := c.Compress(context.Background(), testField(64, 21), client.Params{})
				var se *client.Error
				if !asClientError(err, &se) || se.Status != http.StatusTooManyRequests {
					t.Fatalf("want 429, got %v", err)
				}
			},
		},
		{
			name:    "wait_timeout_429",
			cfg:     service.Config{MaxInFlight: 1, MaxQueue: 1, QueueWait: 30 * time.Millisecond},
			rejects: &telemetry.ServiceRejectedWaitTimeout,
			run: func(t *testing.T, srv *service.Server, c *client.Client, baseURL string) {
				release := holdRequest(t, baseURL, srv, 1)
				defer release()
				_, err := c.Compress(context.Background(), testField(64, 22), client.Params{})
				var se *client.Error
				if !asClientError(err, &se) || se.Status != http.StatusTooManyRequests {
					t.Fatalf("want 429 after queue wait, got %v", err)
				}
			},
		},
		{
			name:    "draining_503",
			cfg:     service.Config{},
			rejects: &telemetry.ServiceRejectedDraining,
			run: func(t *testing.T, srv *service.Server, c *client.Client, _ string) {
				srv.BeginDrain()
				_, err := c.Compress(context.Background(), testField(64, 23), client.Params{})
				var se *client.Error
				if !asClientError(err, &se) || se.Status != http.StatusServiceUnavailable {
					t.Fatalf("want 503 while draining, got %v", err)
				}
			},
		},
		{
			// A disconnect the HTTP/1.1 server can actually observe: the
			// client bails mid-upload while the handler is reading the body.
			// (Cancelling while *queued* is invisible over HTTP/1.1 — the
			// server only watches the connection once the body has been
			// consumed — so that denial path is pinned at the admission layer
			// by TestAdmitCancelledWhileQueued instead.)
			name:    "cancelled_mid_upload_499",
			cfg:     service.Config{},
			rejects: &telemetry.ServiceCancelledRequests,
			run: func(t *testing.T, _ *service.Server, _ *client.Client, baseURL string) {
				pr, pw := io.Pipe()
				errCh := make(chan error, 1)
				go func() {
					req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/compress?t=f32", pr)
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
				pw.Write(make([]byte, 8)) // partial payload: handler is mid-read
				pw.CloseWithError(errors.New("client bailed mid-upload"))
				<-errCh // outcome (499 or transport error) doesn't matter, only the server-side accounting
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			telemetry.Reset()
			srv, c, baseURL := newTestServer(t, tc.cfg)
			before := int64(0)
			if tc.rejects != nil {
				before = tc.rejects.Load()
			}
			tc.run(t, srv, c, baseURL)
			if tc.rejects != nil {
				// The client can see its error a beat before the server-side
				// admission path finishes counting the denial.
				deadline := time.Now().Add(5 * time.Second)
				for tc.rejects.Load() <= before {
					if time.Now().After(deadline) {
						t.Errorf("denial counter did not move")
						break
					}
					time.Sleep(time.Millisecond)
				}
			}
			waitZeroGauges(t)
		})
	}
}

func asClientError(err error, target **client.Error) bool {
	return errors.As(err, target)
}
