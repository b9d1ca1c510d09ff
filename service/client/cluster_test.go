package client

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/service/cluster"
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

// infoNode is a stand-in szxd that serves /v1/cluster/info from info, and
// fails every probe while info is nil.
func infoNode(t *testing.T) (*httptest.Server, *atomic.Pointer[cluster.Info]) {
	t.Helper()
	info := new(atomic.Pointer[cluster.Info])
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in := info.Load()
		if in == nil || r.URL.Path != "/v1/cluster/info" {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(in)
	}))
	t.Cleanup(srv.Close)
	return srv, info
}

// TestCandidateOrder pins the order the retry loop walks: of the routable
// nodes the less loaded comes first, then suspects, then the draining and
// dead nodes in configured order. With no routable node left every node is
// still returned, suspects first, and the dispatch counts as a fallback.
func TestCandidateOrder(t *testing.T) {
	// Configured order differs from every expected order below.
	names := []string{"dead", "loaded", "draining", "suspect", "idle"}
	addrs := make([]string, len(names))
	infos := make(map[string]*atomic.Pointer[cluster.Info], len(names))
	for i, name := range names {
		srv, info := infoNode(t)
		addrs[i], infos[name] = srv.URL, info
		info.Store(&cluster.Info{NodeID: name})
	}
	infos["loaded"].Store(&cluster.Info{NodeID: "loaded", InFlight: 6, QueueDepth: 4})
	infos["idle"].Store(&cluster.Info{NodeID: "idle", InFlight: 1})
	infos["draining"].Store(&cluster.Info{NodeID: "draining", Draining: true})
	infos["dead"].Store(nil)

	cc, err := NewCluster(ClusterConfig{Nodes: addrs, PollInterval: -1})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cc.Close()
	poll := func(n int) {
		for range n {
			cc.Membership().PollOnce(context.Background())
		}
	}
	// "dead" fails four probes in a row and "suspect" the last two: the
	// detector's dead and suspect thresholds.
	poll(2)
	infos["suspect"].Store(nil)
	poll(2)
	states := map[string]string{}
	for _, v := range cc.Peers() {
		states[names[slices.Index(addrs, v.Addr)]] = v.State
	}
	wantStates := map[string]string{
		"dead": "dead", "suspect": "suspect", "loaded": "alive", "idle": "alive", "draining": "alive",
	}
	if !maps.Equal(states, wantStates) {
		t.Fatalf("peer states %v, want %v", states, wantStates)
	}

	order := func() []string {
		var got []string
		for _, n := range cc.candidates() {
			got = append(got, names[slices.Index(addrs, n.addr)])
		}
		return got
	}
	// Two routable nodes: power of two choices samples both, in either
	// order, so every dispatch must put the idle one first.
	least, fallback := telemetry.ClusterRoutedLeastLoaded.Load(), telemetry.ClusterRoutedFallback.Load()
	want := []string{"idle", "loaded", "suspect", "dead", "draining"}
	for range 16 {
		if got := order(); !slices.Equal(got, want) {
			t.Fatalf("candidates %v, want %v", got, want)
		}
	}
	if got := telemetry.ClusterRoutedLeastLoaded.Load() - least; got != 16 {
		t.Errorf("least-loaded routings rose by %d, want 16", got)
	}
	if got := telemetry.ClusterRoutedFallback.Load() - fallback; got != 0 {
		t.Errorf("fallback routings rose by %d with routable nodes, want 0", got)
	}

	// No routable node: both alive nodes start draining.
	infos["loaded"].Store(&cluster.Info{NodeID: "loaded", Draining: true})
	infos["idle"].Store(&cluster.Info{NodeID: "idle", Draining: true})
	poll(1)
	fallback = telemetry.ClusterRoutedFallback.Load()
	want = []string{"suspect", "dead", "loaded", "draining", "idle"}
	if got := order(); !slices.Equal(got, want) {
		t.Fatalf("candidates with no routable node %v, want %v", got, want)
	}
	if got := telemetry.ClusterRoutedFallback.Load() - fallback; got != 1 {
		t.Errorf("fallback routings rose by %d, want 1", got)
	}
}
