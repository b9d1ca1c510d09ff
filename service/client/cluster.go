package client

import (
	"context"
	"errors"
	"math/rand/v2"
	"net/http"
	"sync/atomic"
	"time"

	"repro/service/cluster"
	"repro/telemetry"
)

// ErrNoNodes is returned when a ClusterClient has an empty node list.
var ErrNoNodes = errors.New("szxd cluster: no nodes configured")

// ClusterConfig configures a ClusterClient. Only Nodes is required.
type ClusterConfig struct {
	// Nodes is the static list of szxd base URLs (or host:port strings).
	Nodes []string
	// Retry caps cross-node retries of shed/failed requests; zero-value
	// fields take RetryPolicy defaults (3 attempts, jittered backoff).
	Retry RetryPolicy
	// RetryBudget is the retry earn rate: each successful call banks this
	// many retry credits and each retry spends one (0 = 0.2, at most one
	// retry per five successes plus a starting bank of ten). The budget is
	// global across the client: an overloaded fleet shedding every request
	// exhausts it and subsequent failures surface immediately instead of
	// amplifying the overload.
	RetryBudget float64
	// PollInterval is the membership probe cadence (0 = 1s; negative
	// disables background polling — callers then drive
	// Membership().PollOnce themselves, which tests do).
	PollInterval time.Duration
}

// clusterNode pairs one node's single-node Client with this client's
// local view of it.
type clusterNode struct {
	addr        string
	c           *Client
	outstanding atomic.Int64 // requests this client has in flight there
}

// ClusterClient fans a Client's API out over a fleet of szxd nodes: it
// embeds a cluster.Membership over the node list, routes each request to
// the less loaded of two random routable nodes (power of two choices over
// each node's polled queue depth and in-flight count plus this client's own
// outstanding requests), keeps draining/suspect/dead nodes as a last
// resort, and retries shed or failed requests on the next node — under a
// budget that caps the extra load at a fraction of the successful traffic.
type ClusterClient struct {
	retry RetryPolicy

	nodes []*clusterNode
	mem   *cluster.Membership
	rb    creditBank // retry credits
}

// NewCluster builds a ClusterClient over cfg.Nodes and starts membership
// polling (unless cfg.PollInterval is negative). Call Close to stop it.
func NewCluster(cfg ClusterConfig) (*ClusterClient, error) {
	if len(cfg.Nodes) == 0 {
		return nil, ErrNoNodes
	}
	hc := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 128,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	cc := &ClusterClient{retry: cfg.Retry.withDefaults()}
	seen := make(map[string]bool)
	for _, n := range cfg.Nodes {
		addr := cluster.NormalizeAddr(n)
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		cc.nodes = append(cc.nodes, &clusterNode{
			addr: addr,
			c:    New(addr, WithHTTPClient(hc)),
		})
	}
	if len(cc.nodes) == 0 {
		return nil, ErrNoNodes
	}
	cc.rb.init(cfg.RetryBudget)
	poll := cfg.PollInterval
	cc.mem = cluster.New(cluster.Config{
		Peers:        cfg.Nodes,
		PollInterval: max(poll, 0),
	})
	if poll >= 0 {
		cc.mem.Start()
	}
	return cc, nil
}

// Close stops membership polling. The client remains usable afterwards
// (it just stops refreshing peer state).
func (cc *ClusterClient) Close() error {
	cc.mem.Stop()
	return nil
}

// Membership exposes the underlying peer tracker (for /debug mounting and
// tests).
func (cc *ClusterClient) Membership() *cluster.Membership { return cc.mem }

// Peers snapshots the current peer views.
func (cc *ClusterClient) Peers() []cluster.PeerView { return cc.mem.Peers() }

// load is the routing signal for one node: the peer's last-polled queue
// depth + in-flight, plus the requests this client has dispatched there
// since (the poll data is up to an interval stale; local outstanding
// covers the gap).
func (cc *ClusterClient) load(n *clusterNode, v cluster.PeerView) int {
	return v.Load + int(n.outstanding.Load())
}

// candidates orders the nodes for one dispatch: routable (alive, not
// draining) nodes first, the less loaded of two random ones at the head,
// then suspects, then the rest — so the retry loop walks from best to
// worst and a fully-dark fleet still gets attempted rather than failing
// without trying.
func (cc *ClusterClient) candidates() []*clusterNode {
	views := cc.mem.Peers()
	vm := make(map[string]cluster.PeerView, len(views))
	for _, v := range views {
		vm[v.Addr] = v
	}
	routable := make([]*clusterNode, 0, len(cc.nodes))
	var suspects, rest []*clusterNode
	for _, n := range cc.nodes {
		v, ok := vm[n.addr]
		switch {
		case ok && v.Routable():
			routable = append(routable, n)
		case ok && v.Suspect():
			suspects = append(suspects, n)
		default:
			rest = append(rest, n)
		}
	}
	if len(routable) == 0 {
		telemetry.ClusterRoutedFallback.Inc()
		return append(suspects, rest...)
	}
	if len(routable) > 1 {
		// Power of two choices: sample two distinct candidates, put the
		// less loaded one first. The rest keep their order as the retry
		// tail.
		i := rand.IntN(len(routable))
		j := rand.IntN(len(routable) - 1)
		if j >= i {
			j++
		}
		if cc.load(routable[j], vm[routable[j].addr]) < cc.load(routable[i], vm[routable[i].addr]) {
			i, j = j, i
		}
		routable[0], routable[i] = routable[i], routable[0]
		if j == 0 {
			j = i // j held routable[0]; it moved to slot i
		}
		routable[1], routable[j] = routable[j], routable[1]
	}
	telemetry.ClusterRoutedLeastLoaded.Inc()
	return append(append(routable, suspects...), rest...)
}

// clusterRun executes op against one node, maintaining the local
// outstanding gauge, the per-node request tally, and (on success) the
// earn side of the retry budget.
func clusterRun[T any](cc *ClusterClient, ctx context.Context, n *clusterNode, op func(context.Context, *Client) (T, error)) (T, error) {
	n.outstanding.Add(1)
	defer n.outstanding.Add(-1)
	telemetry.ClusterNodeRequests(n.addr).Inc()
	v, err := op(ctx, n.c)
	if err == nil {
		cc.rb.earn()
	}
	return v, err
}

// clusterDo is the dispatch spine under every ClusterClient method: order
// the candidates once, then call them one at a time with budgeted
// jittered-backoff retries until success, a non-retryable error, the
// attempt cap, or an exhausted retry budget.
func clusterDo[T any](cc *ClusterClient, ctx context.Context, op func(context.Context, *Client) (T, error)) (T, error) {
	var zero T
	cands := cc.candidates()
	for attempt := 1; ; attempt++ {
		v, err := clusterRun(cc, ctx, cands[(attempt-1)%len(cands)], op)
		if err == nil {
			return v, nil
		}
		if attempt >= cc.retry.MaxAttempts || !IsRetryable(err) {
			return zero, err
		}
		if !cc.rb.take() {
			telemetry.ClusterRetryBudgetDenied.Inc()
			return zero, err
		}
		telemetry.ClusterRetries.Inc()
		if sleepRetry(ctx, retryDelay(cc.retry, attempt, retryAfterOf(err))) != nil {
			return zero, err
		}
	}
}

// Compress routes a Compress call across the cluster.
func (cc *ClusterClient) Compress(ctx context.Context, vals []float32, p Params) ([]byte, error) {
	return clusterDo(cc, ctx, func(ctx context.Context, c *Client) ([]byte, error) {
		return c.Compress(ctx, vals, p)
	})
}

// CompressFloat64 routes a CompressFloat64 call across the cluster.
func (cc *ClusterClient) CompressFloat64(ctx context.Context, vals []float64, p Params) ([]byte, error) {
	return clusterDo(cc, ctx, func(ctx context.Context, c *Client) ([]byte, error) {
		return c.CompressFloat64(ctx, vals, p)
	})
}

// Decompress routes a Decompress call across the cluster.
func (cc *ClusterClient) Decompress(ctx context.Context, comp []byte) ([]float32, error) {
	return clusterDo(cc, ctx, func(ctx context.Context, c *Client) ([]float32, error) {
		return c.Decompress(ctx, comp)
	})
}

// DecompressFloat64 routes a DecompressFloat64 call across the cluster.
func (cc *ClusterClient) DecompressFloat64(ctx context.Context, comp []byte) ([]float64, error) {
	return clusterDo(cc, ctx, func(ctx context.Context, c *Client) ([]float64, error) {
		return c.DecompressFloat64(ctx, comp)
	})
}

// CompressBatch routes a batch compress across the cluster. The whole
// batch lands on one node (that is the point of batching); only
// request-level shed errors are retried — per-array errors inside a 200
// response are results, not failures, and come back as-is.
func (cc *ClusterClient) CompressBatch(ctx context.Context, arrays [][]float32, p Params) ([]BatchResult, error) {
	return clusterDo(cc, ctx, func(ctx context.Context, c *Client) ([]BatchResult, error) {
		return c.CompressBatch(ctx, arrays, p)
	})
}

// DecompressBatch routes a batch decompress across the cluster.
func (cc *ClusterClient) DecompressBatch(ctx context.Context, comps [][]byte, p Params) ([]BatchValues, error) {
	return clusterDo(cc, ctx, func(ctx context.Context, c *Client) ([]BatchValues, error) {
		return c.DecompressBatch(ctx, comps, p)
	})
}

// Ready reports whether any node is accepting work, preferring the
// best-ranked candidate.
func (cc *ClusterClient) Ready(ctx context.Context) error {
	var err error
	for _, n := range cc.candidates() {
		if err = n.c.Ready(ctx); err == nil {
			return nil
		}
	}
	return err
}

// defaultRetryBudget is ClusterConfig.RetryBudget's zero-value earn rate.
const defaultRetryBudget = 0.2

// creditBank is the retry token bucket, in milli-credits: a retry costs
// 1000, each successful call earns rate·1000, the bank is capped, and it
// starts with ten credits so short runs and cold clients can retry at all.
// The effect is a hard ratio bound — retried load ≤ rate × successful
// traffic + the initial bank — which is what keeps retrying from
// amplifying an overload it cannot fix.
type creditBank struct {
	milli atomic.Int64
	earnM int64 // milli-credits granted per successful call
	capM  int64 // bank ceiling
}

func (b *creditBank) init(rate float64) {
	if rate <= 0 {
		rate = defaultRetryBudget
	}
	b.earnM = int64(rate * 1000)
	if b.earnM < 1 {
		b.earnM = 1
	}
	b.capM = 100 * 1000
	b.milli.Store(10 * 1000)
}

func (b *creditBank) take() bool {
	for {
		cur := b.milli.Load()
		if cur < 1000 {
			return false
		}
		if b.milli.CompareAndSwap(cur, cur-1000) {
			return true
		}
	}
}

func (b *creditBank) earn() {
	for {
		cur := b.milli.Load()
		next := cur + b.earnM
		if next > b.capM {
			next = b.capM
		}
		if next == cur || b.milli.CompareAndSwap(cur, next) {
			return
		}
	}
}
