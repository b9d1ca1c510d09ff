package client

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/telemetry"
)

// shedUnread answers every request 429 without reading its body, as szxd's
// admission control does, and holds the connection open a moment longer.
// Its small receive buffer stalls the upload, so the transport is still
// writing the request body after Do has returned the response; run under
// -race, these tests catch a client that rewinds or recycles that body too
// early.
func shedUnread(t *testing.T) *httptest.Server {
	const shed = `{"code":"overloaded","error":"shed"}`
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(shed)))
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(shed))
		_ = http.NewResponseController(w).Flush()
		time.Sleep(10 * time.Millisecond)
	}))
	srv.Listener = smallReadBuffer{srv.Listener}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv
}

type smallReadBuffer struct{ net.Listener }

func (l smallReadBuffer) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4 << 10)
	}
	return c, err
}

func wantShed(t *testing.T, err error) {
	t.Helper()
	var se *Error
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
		t.Errorf("want the 429 back, got %v", err)
	}
}

// TestRetryWaitsForBodyRelease: each retry sends a fresh reader, and only
// after the transport has closed the previous attempt's body.
func TestRetryWaitsForBodyRelease(t *testing.T) {
	srv := shedUnread(t)
	cc := oneNode(t, srv, RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond})
	vals := make([]float32, 256<<10) // 1 MiB body
	retries := telemetry.ClusterRetries.Load()
	for range 3 {
		_, err := cc.Compress(context.Background(), vals, Params{})
		wantShed(t, err)
	}
	// Nine retries fit the retry budget's starting bank of ten credits.
	if got := telemetry.ClusterRetries.Load() - retries; got != 9 {
		t.Errorf("%d retries, want 9 (3 calls of 4 attempts)", got)
	}
}

// TestConcurrentCallsWaitForBodyRelease: a staging buffer goes back to the
// pool only after the transport has closed the body that reads it, so a
// concurrent call never stages into a buffer that is still being sent.
func TestConcurrentCallsWaitForBodyRelease(t *testing.T) {
	srv := shedUnread(t)
	c := New(srv.URL)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals := make([]float32, 256<<10) // 1 MiB body
			for i := range vals {
				vals[i] = float32(g)
			}
			for range 16 {
				_, err := c.Compress(context.Background(), vals, Params{})
				wantShed(t, err)
			}
		}()
	}
	wg.Wait()
}
