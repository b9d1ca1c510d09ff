package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/telemetry"
)

// TestRetryBudgetDefault: a zero ClusterConfig.RetryBudget applies the
// documented earn rate of 0.2 credits (200 milli-credits) per success.
func TestRetryBudgetDefault(t *testing.T) {
	cc, err := NewCluster(ClusterConfig{Nodes: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cc.Close()
	before := cc.rb.milli.Load()
	ok := func(context.Context, *Client) (int, error) { return 0, nil }
	if _, err := clusterRun(cc, context.Background(), cc.nodes[0], ok); err != nil {
		t.Fatal(err)
	}
	if got := cc.rb.milli.Load() - before; got != 200 {
		t.Fatalf("a success earned %d milli-credits, want 200", got)
	}
}

// TestClusterRetryBudgetExhaustion: against a fleet that sheds every
// request, retries stop once the bank runs dry. The bank starts with ten
// credits and only successes refill it, so the first call makes 11
// attempts and every later call 1, each ending in the shed error and one
// counted denial.
func TestClusterRetryBudgetExhaustion(t *testing.T) {
	var attempts atomic.Int64
	shed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"code":"overloaded","error":"shed"}`))
	})
	a, b := httptest.NewServer(shed), httptest.NewServer(shed)
	defer a.Close()
	defer b.Close()
	cc, err := NewCluster(ClusterConfig{
		Nodes:        []string{a.URL, b.URL},
		Retry:        RetryPolicy{MaxAttempts: 20, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
		PollInterval: -1,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cc.Close()

	for call, want := range []int64{11, 1, 1, 1} {
		attempts.Store(0)
		denied := telemetry.ClusterRetryBudgetDenied.Load()
		_, err := cc.Compress(context.Background(), []float32{1, 2, 3, 4}, Params{})
		var se *Error
		if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
			t.Fatalf("call %d: err = %v, want the 429 *Error", call, err)
		}
		if got := attempts.Load(); got != want {
			t.Errorf("call %d: %d attempts, want %d", call, got, want)
		}
		if got := telemetry.ClusterRetryBudgetDenied.Load() - denied; got != 1 {
			t.Errorf("call %d: retry budget denials rose by %d, want 1", call, got)
		}
	}
}
