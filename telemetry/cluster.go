package telemetry

import (
	"fmt"
	"maps"
	"slices"
	"sync"
)

// The cluster metric set (service/cluster membership + the client-side
// ClusterClient). Like the service family these are ungated: membership
// transitions and routing decisions happen a handful of times per request
// or per poll round, never per block.
var (
	// Routing decisions: least-loaded picks, and fallbacks — dispatches
	// where no routable (alive, non-draining) node existed and the router
	// resorted to a suspect or dead peer rather than failing outright.
	ClusterRoutedLeastLoaded Counter
	ClusterRoutedFallback    Counter

	// Retries against another replica after a retryable failure (429/503 or
	// a transport error), and retries the retry token bucket refused — the
	// budget backstop that keeps a cluster client from amplifying load into
	// an already-overloaded fleet.
	ClusterRetries           Counter
	ClusterRetryBudgetDenied Counter

	// Failure-detector state: instantaneous peer counts per state, and
	// cumulative transitions into each state (a flapping peer shows up as a
	// high transition rate with a steady state gauge).
	ClusterPeersAlive    Gauge
	ClusterPeersSuspect  Gauge
	ClusterPeersDead     Gauge
	ClusterPeerToAlive   Counter
	ClusterPeerToSuspect Counter
	ClusterPeerToDead    Counter

	// Membership poll rounds completed.
	ClusterPolls Counter
)

// clusterNodes is the per-node request tally: one counter per node address,
// created on first use. Node sets are dynamic (they come from -peers or a
// ClusterClient's node list at runtime), so the registry exports this
// family as a dynamic row, like szx_build_info.
var clusterNodes struct {
	mu sync.Mutex
	m  map[string]*Counter
}

// ClusterNodeRequests returns the request counter for one node address,
// creating it on first use. The address becomes the `node` label of the
// szx_cluster_node_requests_total series.
func ClusterNodeRequests(node string) *Counter {
	clusterNodes.mu.Lock()
	defer clusterNodes.mu.Unlock()
	if clusterNodes.m == nil {
		clusterNodes.m = make(map[string]*Counter)
	}
	c := clusterNodes.m[node]
	if c == nil {
		c = &Counter{}
		clusterNodes.m[node] = c
	}
	return c
}

// clusterNodeSeries yields the per-node tallies in sorted label order
// (addresses with zero counts included: a node that was registered but
// never routed to is signal, not noise).
func clusterNodeSeries(yield func(labels string, v int64) bool) {
	clusterNodes.mu.Lock()
	nodes := maps.Clone(clusterNodes.m)
	clusterNodes.mu.Unlock()
	for _, k := range slices.Sorted(maps.Keys(nodes)) {
		if !yield(fmt.Sprintf("{node=%q}", k), nodes[k].Load()) {
			return
		}
	}
}

func resetClusterNodes() {
	clusterNodes.mu.Lock()
	defer clusterNodes.mu.Unlock()
	clusterNodes.m = nil
}
