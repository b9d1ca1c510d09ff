// End-to-end cluster tests: real service.Servers on real listeners, a
// ClusterClient routing across them, and the failure modes the subsystem
// exists for — a node dying abruptly under load, and routed responses
// that must stay byte-identical to single-node ones.
//
// This is an external test package (cluster_test) so it can import the
// service and client packages without a cycle.
package cluster_test

import (
	"bytes"
	"context"
	"math"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/service"
	"repro/service/client"
	"repro/service/cluster"
	"repro/telemetry"
)

// node is one in-process szxd: a service.Server behind its own
// http.Server, so tests can terminate it abruptly (Close resets active
// connections — the in-process analogue of SIGKILL) instead of only
// gracefully.
type node struct {
	srv *service.Server
	hs  *http.Server
	url string
}

func startNode(t *testing.T, cfg service.Config) *node {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := service.New(cfg)
	n := &node{
		srv: srv,
		hs:  &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(),
	}
	go func() { _ = n.hs.Serve(ln) }()
	t.Cleanup(func() { _ = n.hs.Close() })
	return n
}

// kill terminates the node abruptly: the listener closes and every active
// connection is reset, exactly what clients of a SIGKILLed process see.
func (n *node) kill() { _ = n.hs.Close() }

func testField(n int, seed float32) []float32 {
	vals := make([]float32, n)
	for i := range vals {
		x := float64(i) * 0.01
		vals[i] = seed + float32(math.Sin(x)+0.25*math.Sin(13*x))
	}
	return vals
}

func startCluster(t *testing.T, n int) []*node {
	t.Helper()
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = startNode(t, service.Config{DisableTracing: true})
	}
	return nodes
}

func urls(nodes []*node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.url
	}
	return out
}

// TestClusterByteIdentity pins the routing layer's transparency: whatever
// policy routes a request, one-shot or batched, the response bytes must
// equal what a single-node Client gets from one szxd.
func TestClusterByteIdentity(t *testing.T) {
	nodes := startCluster(t, 3)
	ctx := context.Background()
	vals := testField(1<<15, 1.5)
	p := client.Params{ErrorBound: 1e-3}

	single := client.New(nodes[0].url)
	want, err := single.Compress(ctx, vals, p)
	if err != nil {
		t.Fatalf("single-node compress: %v", err)
	}
	wantVals, err := single.Decompress(ctx, want)
	if err != nil {
		t.Fatalf("single-node decompress: %v", err)
	}
	arrays := [][]float32{vals, testField(1000, -2)}
	wantBatch, err := single.CompressBatch(ctx, arrays, p)
	if err != nil {
		t.Fatalf("single-node batch compress: %v", err)
	}
	wantComps := make([][]byte, len(wantBatch))
	for i, r := range wantBatch {
		if r.Err != nil {
			t.Fatalf("single-node batch compress: array %d: %v", i, r.Err)
		}
		wantComps[i] = r.Comp
	}
	wantBatchVals, err := single.DecompressBatch(ctx, wantComps, client.Params{})
	if err != nil {
		t.Fatalf("single-node batch decompress: %v", err)
	}

	cases := []struct {
		name string
		cfg  client.ClusterConfig
	}{
		{"hash", client.ClusterConfig{Policy: client.PolicyHash}},
		{"least_loaded", client.ClusterConfig{Policy: client.PolicyLeastLoaded}},
		{"ordered", client.ClusterConfig{Policy: client.PolicyOrdered}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Nodes = urls(nodes)
			cfg.PollInterval = -1 // drive membership synchronously
			cc, err := client.NewCluster(cfg)
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			defer cc.Close()
			cc.Membership().PollOnce(ctx)

			for i := range 8 {
				kctx := client.WithAffinityKey(ctx, string(rune('a'+i)))
				got, err := cc.Compress(kctx, vals, p)
				if err != nil {
					t.Fatalf("cluster compress (%d): %v", i, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("cluster compress (%d): %d bytes != single-node %d bytes", i, len(got), len(want))
				}
				gotVals, err := cc.Decompress(kctx, got)
				if err != nil {
					t.Fatalf("cluster decompress (%d): %v", i, err)
				}
				if len(gotVals) != len(wantVals) {
					t.Fatalf("cluster decompress (%d): %d values, want %d", i, len(gotVals), len(wantVals))
				}
				for j := range gotVals {
					if gotVals[j] != wantVals[j] {
						t.Fatalf("cluster decompress (%d): value %d = %v, want %v", i, j, gotVals[j], wantVals[j])
					}
				}
			}

			results, err := cc.CompressBatch(ctx, arrays, p)
			if err != nil {
				t.Fatalf("cluster batch compress: %v", err)
			}
			comps := make([][]byte, len(results))
			for i, r := range results {
				if r.Err != nil || !bytes.Equal(r.Comp, wantComps[i]) {
					t.Fatalf("cluster batch compress: array %d differs from single-node (err %v)", i, r.Err)
				}
				comps[i] = r.Comp
			}
			batchVals, err := cc.DecompressBatch(ctx, comps, client.Params{})
			if err != nil {
				t.Fatalf("cluster batch decompress: %v", err)
			}
			for i, r := range batchVals {
				if r.Err != nil || !slices.Equal(r.Values, wantBatchVals[i].Values) {
					t.Fatalf("cluster batch decompress: array %d differs from single-node (err %v)", i, r.Err)
				}
			}
		})
	}
}

// TestClusterSurvivesNodeKill is the acceptance-criterion e2e: a 3-node
// cluster under concurrent load loses one node abruptly (connection
// resets, then refusals — the client-visible shape of SIGKILL) and every
// request still succeeds, absorbed by retries; afterwards the
// membership layer has marked the node suspect/dead.
func TestClusterSurvivesNodeKill(t *testing.T) {
	nodes := startCluster(t, 3)
	cc, err := client.NewCluster(client.ClusterConfig{
		Nodes:        urls(nodes),
		Policy:       client.PolicyLeastLoaded,
		Retry:        client.RetryPolicy{MaxAttempts: 5, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond},
		RetryBudget:  1,
		PollInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cc.Close()

	const (
		workers     = 8
		perWorker   = 24
		killAtTotal = workers * perWorker / 3
	)
	bound := 1e-3
	p := client.Params{ErrorBound: bound}
	var (
		started atomic.Int64
		killed  sync.Once
		wg      sync.WaitGroup
		errsMu  sync.Mutex
		errs    []error
	)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := testField(1<<14, float32(w))
			for i := range perWorker {
				if started.Add(1) == killAtTotal {
					killed.Do(nodes[1].kill)
				}
				comp, err := cc.Compress(ctx, vals, p)
				if err == nil {
					var got []float32
					got, err = cc.Decompress(ctx, comp)
					if err == nil {
						for j := range got {
							if d := float64(got[j] - vals[j]); d > bound || d < -bound {
								t.Errorf("worker %d req %d: value %d off by %v (> %v)", w, i, j, d, bound)
								break
							}
						}
					}
				}
				if err != nil {
					errsMu.Lock()
					errs = append(errs, err)
					errsMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if len(errs) != 0 {
		t.Fatalf("%d of %d requests failed despite retries; first: %v",
			len(errs), workers*perWorker, errs[0])
	}

	// The failure detector must have noticed: within a few poll intervals
	// the killed node leaves the routable set.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var downed bool
		for _, v := range cc.Peers() {
			if v.Addr == nodes[1].url && !v.Routable() {
				downed = true
			}
		}
		if downed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed node still routable in peer view: %+v", cc.Peers())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestExternalFleet drives an already-running szxd fleet, whose URLs
// SZX_FLEET lists comma-separated, and skips when it is unset: 8 clients
// send 8 MiB compress requests for 10 s through a least-loaded, retrying
// ClusterClient, and any failed request fails the test. The cluster-smoke
// CI job kills one node with SIGKILL partway through, so a pass means the
// retries absorbed the kill.
func TestExternalFleet(t *testing.T) {
	fleet := os.Getenv("SZX_FLEET")
	if fleet == "" {
		t.Skip("SZX_FLEET is unset: no external szxd fleet to drive")
	}
	cc, err := client.NewCluster(client.ClusterConfig{
		Nodes:        strings.Split(fleet, ","),
		Policy:       client.PolicyLeastLoaded,
		Retry:        client.RetryPolicy{MaxAttempts: 4, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 250 * time.Millisecond},
		RetryBudget:  0.5,
		PollInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cc.Close()

	const clients = 8
	vals := testField(2<<20, 1)
	p := client.Params{ErrorBound: 1e-3}
	ctx := context.Background()
	cc.Membership().PollOnce(ctx)
	retries0 := telemetry.ClusterRetries.Load()

	var (
		requests atomic.Int64
		mu       sync.Mutex
		errs     []error
		wg       sync.WaitGroup
		deadline = time.Now().Add(10 * time.Second)
	)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				requests.Add(1)
				if _, err := cc.Compress(ctx, vals, p); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					time.Sleep(2 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d requests, %d failed, %d retries; peers: %+v",
		requests.Load(), len(errs), telemetry.ClusterRetries.Load()-retries0, cc.Peers())
	if len(errs) > 0 {
		t.Fatalf("%d of %d requests failed; first: %v", len(errs), requests.Load(), errs[0])
	}
}

// TestClusterInfoEndpoint pins the wire shape the membership poller
// depends on: /v1/cluster/info serves node identity and load, and flips
// draining (plus Retry-After, like /readyz) once drain begins.
func TestClusterInfoEndpoint(t *testing.T) {
	n := startNode(t, service.Config{NodeID: "e2e-node", DisableTracing: true})
	m := cluster.New(cluster.Config{Peers: []string{n.url}, PollTimeout: time.Second})
	ctx := context.Background()

	m.PollOnce(ctx)
	views := m.Peers()
	if len(views) != 1 || views[0].NodeID != "e2e-node" || !views[0].Routable() {
		t.Fatalf("peer view = %+v, want routable e2e-node", views)
	}

	n.srv.BeginDrain()
	resp, err := http.Get(n.url + "/v1/cluster/info")
	if err != nil {
		t.Fatalf("GET /v1/cluster/info: %v", err)
	}
	resp.Body.Close()
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining /v1/cluster/info missing Retry-After header")
	}
	rz, err := http.Get(n.url + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz status = %d, want 503", rz.StatusCode)
	}
	if rz.Header.Get("Retry-After") == "" {
		t.Error("draining /readyz missing Retry-After header")
	}

	m.PollOnce(ctx)
	if v := m.Peers()[0]; !v.Alive() || v.Routable() {
		t.Fatalf("draining peer view = %+v, want alive but not routable", v)
	}
}
