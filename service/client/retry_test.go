package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"
)

// shedThenServe returns a handler that sheds the first n requests with
// status (plus a tiny Retry-After) and echoes the body afterwards.
func shedThenServe(n int64, status int) (http.Handler, *atomic.Int64) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= n {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_, _ = w.Write([]byte(`{"code":"overloaded","error":"shed"}`))
			return
		}
		body, _ := io.ReadAll(r.Body)
		_, _ = w.Write(body)
	})
	return h, &calls
}

// oneNode returns a ClusterClient over srv alone that retries per p and
// does not poll membership.
func oneNode(t *testing.T, srv *httptest.Server, p RetryPolicy) *ClusterClient {
	t.Helper()
	cc, err := NewCluster(ClusterConfig{Nodes: []string{srv.URL}, Retry: p, PollInterval: -1})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	return cc
}

func TestClusterRetrySucceedsAfterShed(t *testing.T) {
	h, calls := shedThenServe(2, http.StatusTooManyRequests)
	srv := httptest.NewServer(h)
	defer srv.Close()

	cc := oneNode(t, srv, RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	got, err := cc.Compress(context.Background(), []float32{1, 2, 3, 4}, Params{})
	if err != nil {
		t.Fatalf("Compress with retries: %v", err)
	}
	if len(got) != 16 { // echo server: 4 floats in, 16 bytes back
		t.Fatalf("echoed %d bytes, want 16", len(got))
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3 (2 shed + 1 success)", n)
	}
}

func TestClusterRetryExhaustsAttempts(t *testing.T) {
	h, calls := shedThenServe(1<<30, http.StatusServiceUnavailable)
	srv := httptest.NewServer(h)
	defer srv.Close()

	cc := oneNode(t, srv, RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	// Retry-After of 1s must not be honored past the context deadline: cap
	// the whole call well under one server-mandated backoff.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cc.Compress(ctx, []float32{1}, Params{})
	var se *Error
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("want the 503 back after exhausting retries, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("retry loop ignored the context deadline (took %s)", elapsed)
	}
	if n := calls.Load(); n < 1 || n > 3 {
		t.Fatalf("server saw %d attempts, want 1..3", n)
	}
}

func TestIsRetryable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"overloaded_429", &Error{Status: http.StatusTooManyRequests}, true},
		{"draining_503", &Error{Status: http.StatusServiceUnavailable}, true},
		{"bad_request_400", &Error{Status: http.StatusBadRequest}, false},
		{"corrupt_400", &Error{Status: http.StatusBadRequest, Code: "corrupt"}, false},
		{"transport", &url.Error{Op: "Post", URL: "http://x", Err: errors.New("connection refused")}, true},
		{"ctx_cancelled", context.Canceled, false},
		{"ctx_deadline", context.DeadlineExceeded, false},
		{"ctx_cancelled_wrapped", &url.Error{Op: "Post", URL: "http://x", Err: context.Canceled}, false},
		{"other", errors.New("boom"), false},
	}
	for _, c := range cases {
		if got := IsRetryable(c.err); got != c.want {
			t.Errorf("IsRetryable(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRetryDelayHonorsRetryAfter(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	for range 50 {
		if d := retryDelay(p, 1, 0); d <= 0 || d > p.BaseBackoff {
			t.Fatalf("jittered delay %s outside (0, %s]", d, p.BaseBackoff)
		}
		if d := retryDelay(p, 10, 0); d > p.MaxBackoff {
			t.Fatalf("delay %s above max backoff %s", d, p.MaxBackoff)
		}
		if d := retryDelay(p, 1, 3*time.Second); d < 3*time.Second {
			t.Fatalf("delay %s below the server's Retry-After of 3s", d)
		}
	}
}
