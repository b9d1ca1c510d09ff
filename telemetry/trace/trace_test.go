package trace

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestNewTraceIDShape(t *testing.T) {
	tr := New("op")
	if id := tr.ID(); len(id) != 32 || !isHex(id) {
		t.Fatalf("New trace ID = %q, want 32 lowercase hex digits", id)
	}
	if tr.Name() != "op" {
		t.Fatalf("Name = %q", tr.Name())
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New("compress")
	h := tr.Traceparent()
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("Traceparent = %q, want 00-<32>-<16>-01", h)
	}
	got := FromTraceparent("decompress", h)
	if got.ID() != tr.ID() {
		t.Fatalf("round-tripped trace ID = %q, want %q", got.ID(), tr.ID())
	}
	if got.parent != h[36:52] {
		t.Fatalf("parent span = %q, want %q", got.parent, h[36:52])
	}
}

func TestNewWithIDValidation(t *testing.T) {
	good := "0123456789abcdef0123456789abcdef"
	if got := NewWithID("op", good).ID(); got != good {
		t.Fatalf("valid ID not adopted: got %q", got)
	}
	for _, bad := range []string{
		"",
		"short",
		strings.Repeat("0", 32),                // all-zero is reserved
		strings.ToUpper(good),                  // uppercase rejected
		"0123456789abcdef0123456789abcdeg",     // non-hex
		"0123456789abcdef0123456789abcdef0011", // wrong length
	} {
		tr := NewWithID("op", bad)
		if tr.ID() == bad {
			t.Errorf("ill-formed ID %q adopted verbatim", bad)
		}
		if len(tr.ID()) != 32 || !isHex(tr.ID()) {
			t.Errorf("fallback ID %q not well-formed", tr.ID())
		}
	}
}

func TestFromTraceparentMalformed(t *testing.T) {
	valid := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	for _, h := range []string{
		"",
		"garbage",
		valid[:54],       // truncated
		"01" + valid[2:], // wrong version
		"00-00000000000000000000000000000000-0123456789abcdef-01", // zero trace ID
		strings.Replace(valid, "-01", "x01", 1),                   // broken delimiter
	} {
		tr := FromTraceparent("op", h)
		if tr == nil || len(tr.ID()) != 32 {
			t.Fatalf("FromTraceparent(%q) must fall back to a fresh trace", h)
		}
		if h == valid {
			t.Fatal("test bug: mutated header equals the valid one")
		}
	}
	if got := FromTraceparent("op", valid).ID(); got != valid[3:35] {
		t.Fatalf("valid header not adopted: got %q", got)
	}
}

func TestNilTraceSafety(t *testing.T) {
	var tr *Trace
	// None of these may panic, and the zero results must be inert.
	if tr.ID() != "" || tr.Name() != "" || tr.Traceparent() != "" {
		t.Fatal("nil trace identity methods must return empty strings")
	}
	tr.StartSpan("x").End()
	tr.RecordSpan("x", time.Now(), time.Now())
	tr.SetStatus(500)
	tr.SetError("boom")
	tr.SetBytes(1, 2)
	tr.Finish(NewRecorder(0, 0))
	if tr.Duration() != 0 || tr.SpanDur("x") != 0 || tr.StageSummary() != "" {
		t.Fatal("nil trace accessors must return zero values")
	}
	if v := tr.View(); v.TraceID != "" {
		t.Fatal("nil trace View must be zero")
	}
	ctx := NewContext(t.Context(), tr)
	if FromContext(ctx) != nil {
		t.Fatal("NewContext with nil trace must not store anything")
	}
}

func TestSpanCapAndDrop(t *testing.T) {
	tr := New("op")
	now := time.Now()
	for i := 0; i < maxSpans+10; i++ {
		tr.RecordSpan("s", now, now.Add(time.Millisecond))
	}
	v := tr.View()
	if len(v.Spans) != maxSpans {
		t.Fatalf("retained %d spans, want cap %d", len(v.Spans), maxSpans)
	}
	if v.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", v.Dropped)
	}
}

func TestSpanDurAndStageSummary(t *testing.T) {
	tr := New("op")
	base := tr.start
	tr.RecordSpan("read", base, base.Add(2*time.Millisecond))
	tr.RecordSpan("encode", base.Add(2*time.Millisecond), base.Add(5*time.Millisecond))
	tr.RecordSpan("read", base.Add(5*time.Millisecond), base.Add(6*time.Millisecond))
	if d := tr.SpanDur("read"); d != 3*time.Millisecond {
		t.Fatalf("SpanDur(read) = %s, want 3ms", d)
	}
	sum := tr.StageSummary()
	if !strings.HasPrefix(sum, "read=3ms encode=3ms") {
		t.Fatalf("StageSummary = %q (want read first, merged)", sum)
	}
}

func TestFinishSealsOnce(t *testing.T) {
	rec := NewRecorder(8, 1)
	tr := New("op")
	tr.Finish(rec)
	d1 := tr.Duration()
	time.Sleep(2 * time.Millisecond)
	tr.Finish(rec) // second Finish is a no-op
	if d2 := tr.Duration(); d2 != d1 {
		t.Fatalf("duration moved after second Finish: %s then %s", d1, d2)
	}
	if got := rec.Stats().Offered; got != 1 {
		t.Fatalf("offered = %d, want 1 (double Finish must not re-offer)", got)
	}
}

func TestRecorderKeepsErrorsAlways(t *testing.T) {
	rec := NewRecorder(16, -1) // negative sampleN: no probabilistic keeps
	for i := 0; i < 10; i++ {
		tr := New("ok")
		tr.SetStatus(200)
		tr.Finish(rec)
	}
	errTr := New("bad")
	errTr.SetStatus(429)
	errTr.Finish(rec)
	msgTr := New("worse")
	msgTr.SetError("exploded")
	msgTr.Finish(rec)

	views := rec.Traces()
	if len(views) != 2 {
		t.Fatalf("kept %d traces, want only the 2 errors", len(views))
	}
	for _, v := range views {
		if v.SampledFor != "error" {
			t.Fatalf("trace %s kept for %q, want error", v.TraceID, v.SampledFor)
		}
	}
	// Newest first: the SetError trace finished last.
	if views[0].TraceID != msgTr.ID() || views[1].TraceID != errTr.ID() {
		t.Fatal("Traces() not newest-first")
	}
}

func TestRecorderSampleEveryNth(t *testing.T) {
	rec := NewRecorder(64, 4)
	for i := 0; i < 16; i++ {
		tr := New("ok")
		tr.SetStatus(200)
		tr.Finish(rec)
	}
	if kept := rec.Stats().Kept; kept != 4 {
		t.Fatalf("kept %d of 16 at sampleN=4, want 4", kept)
	}
}

func TestRecorderRingOverwrite(t *testing.T) {
	rec := NewRecorder(4, 1) // keep everything, tiny ring
	var ids []string
	for i := 0; i < 7; i++ {
		tr := New("op")
		tr.Finish(rec)
		ids = append(ids, tr.ID())
	}
	views := rec.Traces()
	if len(views) != 4 {
		t.Fatalf("ring holds %d, want 4", len(views))
	}
	for i, v := range views {
		want := ids[len(ids)-1-i]
		if v.TraceID != want {
			t.Fatalf("ring[%d] = %s, want %s (newest first)", i, v.TraceID, want)
		}
	}
	if _, ok := rec.Lookup(ids[0]); ok {
		t.Fatal("oldest trace should have been overwritten")
	}
	if _, ok := rec.Lookup(ids[6]); !ok {
		t.Fatal("newest trace must be retained")
	}
}

func TestRecorderSlowColdStart(t *testing.T) {
	rec := NewRecorder(16, -1)
	if th := rec.SlowThreshold(); th != 0 {
		t.Fatalf("cold recorder slow threshold = %s, want 0 (undefined)", th)
	}
	// Under slowMinSamples offers, nothing qualifies as slow however long.
	tr := New("op")
	tr.start = tr.start.Add(-time.Second)
	tr.Finish(rec)
	if got := rec.Stats().Kept; got != 0 {
		t.Fatal("a cold recorder must not keep by slowness")
	}
}

func TestHandlerJSONAndText(t *testing.T) {
	rec := NewRecorder(8, 1)
	tr := New("compress")
	tr.RecordSpan("queue_wait", tr.start, tr.start.Add(time.Millisecond))
	tr.SetStatus(200)
	tr.SetBytes(1024, 128)
	tr.Finish(rec)

	h := rec.Handler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/requests", nil))
	var page struct {
		Offered int64  `json:"offered"`
		Kept    int64  `json:"kept"`
		Traces  []View `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
		t.Fatalf("JSON response: %v", err)
	}
	if page.Offered != 1 || page.Kept != 1 || len(page.Traces) != 1 {
		t.Fatalf("page = %+v", page)
	}
	if page.Traces[0].TraceID != tr.ID() || len(page.Traces[0].Spans) != 1 {
		t.Fatalf("trace view = %+v", page.Traces[0])
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/requests?format=text", nil))
	text := rr.Body.String()
	if !strings.Contains(text, tr.ID()) || !strings.Contains(text, "queue_wait") {
		t.Fatalf("text page missing trace content:\n%s", text)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/requests?trace_id="+tr.ID(), nil))
	if rr.Code != 200 {
		t.Fatalf("lookup by ID: %d", rr.Code)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/requests?trace_id="+strings.Repeat("f", 32), nil))
	if rr.Code != 404 {
		t.Fatalf("unknown trace ID: %d, want 404", rr.Code)
	}
}

func TestConcurrentSpanRecording(t *testing.T) {
	tr := New("op")
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				tr.RecordSpan("pipe_frame", time.Now(), time.Now())
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	v := tr.View()
	if len(v.Spans)+v.Dropped != 400 {
		t.Fatalf("spans %d + dropped %d != 400", len(v.Spans), v.Dropped)
	}
}
