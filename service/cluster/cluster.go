// Package cluster is the membership layer for a fleet of szxd nodes: a
// static seed list of peers, an HTTP poller against each peer's
// /v1/cluster/info, and a per-peer failure-detection state machine
//
//	alive → suspect → dead → (rejoin) alive
//
// driven by consecutive probe failures and healed by any successful probe.
// The poller also harvests each peer's load signals (queue depth,
// in-flight, drain state), which is what turns per-node admission control
// into fleet-level routing: the client-side ClusterClient embeds a
// Membership over the same node list and routes around draining, suspect,
// and dead peers using the very gauges each node already exports.
//
// Membership is deliberately static-seed rather than gossip: an szxd fleet
// is provisioned by an operator or an orchestrator that knows the node
// list, and a full-mesh poll of N seeds is O(N) probes per node per
// interval — trivial at the fleet sizes one service needs. The state
// machine, not the discovery mechanism, is the part that matters: routing
// must stop sending to a dead node within a couple of poll intervals and
// must start again when it comes back, without operator action.
package cluster

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/telemetry"
)

// State is a peer's failure-detector state.
type State int32

const (
	// StateAlive: the last probe succeeded (or the peer has not been probed
	// yet — peers start alive so a fresh cluster routes immediately).
	StateAlive State = iota
	// StateSuspect: suspectAfter consecutive probes failed. Routing treats
	// suspects as a last resort, but they are not written off: one good
	// probe heals them.
	StateSuspect
	// StateDead: deadAfter consecutive probes failed. Routing excludes dead
	// peers entirely; polling continues so a recovered peer rejoins.
	StateDead
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return "unknown"
}

// Info is the wire shape of GET /v1/cluster/info: one node's identity and
// instantaneous load. The service package serves it; this package polls it.
type Info struct {
	NodeID      string `json:"node_id"`
	Version     string `json:"version,omitempty"`
	GoVersion   string `json:"goversion,omitempty"`
	Kernels     string `json:"kernels,omitempty"`
	MaxInFlight int    `json:"max_in_flight"`
	InFlight    int    `json:"in_flight"`
	QueueDepth  int    `json:"queue_depth"`
	Draining    bool   `json:"draining"`
	UptimeSec   int64  `json:"uptime_s"`
}

// Load is the routing signal derived from Info: total commitment relative
// to capacity. A node with 8 in flight and 4 queued is "12 deep" whatever
// its cap; least-loaded routing compares these directly.
func (i Info) Load() int { return i.InFlight + i.QueueDepth }

// The failure detector's thresholds, in consecutive failed probes: an alive
// peer turns suspect at suspectAfter and dead at deadAfter. At the default
// 1 s poll interval that is about two and four seconds after a peer stops
// answering.
const (
	suspectAfter = 2
	deadAfter    = 4
)

// Config tunes a Membership. Zero fields get production-shaped defaults.
type Config struct {
	// Self is this node's own advertised address; a peer entry equal to it
	// (after URL normalization) is skipped, so operators can hand every
	// node the identical -peers list. Empty is fine for client-side use.
	Self string
	// Peers is the static seed list: base URLs or host:port strings.
	Peers []string
	// PollInterval is the probe cadence (0 = 1s). One poll round, every
	// probe included, is bounded by half of it, capped at 2s.
	PollInterval time.Duration
	// Logger, when non-nil, receives one structured line per state
	// transition — the membership audit trail.
	Logger *slog.Logger
}

// NormalizeAddr turns a peer entry into a base URL: "host:8080" becomes
// "http://host:8080", URLs pass through with trailing slashes trimmed.
func NormalizeAddr(addr string) string {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// peer is one tracked node. state and info are atomics so PeerView
// snapshots never block the poll loop; fails is only touched by the poll
// goroutine.
type peer struct {
	addr     string // normalized base URL
	state    atomic.Int32
	fails    atomic.Int32
	info     atomic.Pointer[Info]
	lastSeen atomic.Int64 // unix nanos of the last successful probe
}

// PeerView is a read-only snapshot of one peer for routing and debugging.
type PeerView struct {
	Addr     string    `json:"addr"`
	State    string    `json:"state"`
	NodeID   string    `json:"node_id,omitempty"`
	Draining bool      `json:"draining"`
	Load     int       `json:"load"`
	InFlight int       `json:"in_flight"`
	Queue    int       `json:"queue_depth"`
	LastSeen time.Time `json:"last_seen,omitzero"`
	Fails    int       `json:"consecutive_failures"`

	state State // typed form of State, for routing code
}

// Alive reports whether the peer's failure detector considers it up.
func (v PeerView) Alive() bool { return v.state == StateAlive }

// Routable reports whether the peer should receive new work: alive and not
// draining.
func (v PeerView) Routable() bool { return v.state == StateAlive && !v.Draining }

// Suspect reports the intermediate detector state.
func (v PeerView) Suspect() bool { return v.state == StateSuspect }

// Membership tracks the health and load of a fixed peer set.
type Membership struct {
	cfg     Config
	timeout time.Duration // bounds one poll round
	hc      *http.Client
	peers   []*peer

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a Membership over cfg.Peers (minus cfg.Self). It does not
// start polling; call Start, or PollOnce for a synchronous round.
func New(cfg Config) *Membership {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = time.Second
	}
	self := NormalizeAddr(cfg.Self)
	m := &Membership{
		cfg:     cfg,
		timeout: min(cfg.PollInterval/2, 2*time.Second),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	seen := make(map[string]bool)
	for _, p := range cfg.Peers {
		addr := NormalizeAddr(p)
		if addr == "" || addr == self || seen[addr] {
			continue
		}
		seen[addr] = true
		pr := &peer{addr: addr}
		pr.state.Store(int32(StateAlive))
		m.peers = append(m.peers, pr)
		telemetry.ClusterNodeRequests(addr) // register the node label eagerly
	}
	m.hc = &http.Client{
		Timeout: m.timeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	m.publishStateGauges()
	return m
}

// Start launches the background poll loop. Safe to call once; use Stop to
// end it. A Membership used purely via PollOnce never needs Start.
func (m *Membership) Start() {
	m.startOnce.Do(func() {
		go func() {
			defer close(m.done)
			tick := time.NewTicker(m.cfg.PollInterval)
			defer tick.Stop()
			// First round immediately: routing should have real states one
			// timeout after startup, not one interval.
			m.PollOnce(context.Background())
			for {
				select {
				case <-m.stop:
					return
				case <-tick.C:
					m.PollOnce(context.Background())
				}
			}
		}()
	})
}

// Stop ends the poll loop and waits for it to exit. A Membership that was
// never started stops immediately (and can no longer be started).
func (m *Membership) Stop() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	// If Start never ran, claim the once so done gets closed exactly once.
	m.startOnce.Do(func() { close(m.done) })
	<-m.done
}

// PollOnce probes every peer concurrently and applies the state machine.
// It is the unit the background loop repeats, exposed so tests (and
// callers that want poll-on-demand) can drive membership synchronously.
func (m *Membership) PollOnce(ctx context.Context) {
	if len(m.peers) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(ctx, m.timeout)
	defer cancel()
	var wg sync.WaitGroup
	results := make([]probeResult, len(m.peers))
	for i, p := range m.peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			results[i] = m.probe(ctx, p.addr)
		}(i, p)
	}
	wg.Wait()
	for i, p := range m.peers {
		m.apply(p, results[i])
	}
	m.publishStateGauges()
	telemetry.ClusterPolls.Inc()
}

type probeResult struct {
	ok   bool
	info *Info
}

// probe hits one peer's /v1/cluster/info. Only a 200 with a parseable body
// counts as alive; a draining peer still answers 200 with Draining set,
// since a draining peer is a healthy process that asked not to receive
// work, which is a routing fact, not a failure.
func (m *Membership) probe(ctx context.Context, addr string) probeResult {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/cluster/info", nil)
	if err != nil {
		return probeResult{}
	}
	resp, err := m.hc.Do(req)
	if err != nil {
		return probeResult{}
	}
	defer resp.Body.Close()
	var info Info
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&info) != nil {
		return probeResult{}
	}
	return probeResult{ok: true, info: &info}
}

// apply runs the failure-detector transition for one probe outcome.
func (m *Membership) apply(p *peer, r probeResult) {
	if r.ok {
		p.fails.Store(0)
		p.info.Store(r.info)
		p.lastSeen.Store(time.Now().UnixNano())
		m.transition(p, StateAlive)
		return
	}
	fails := int(p.fails.Add(1))
	switch {
	case fails >= deadAfter:
		m.transition(p, StateDead)
	case fails >= suspectAfter:
		m.transition(p, StateSuspect)
	}
}

// transition moves a peer to next (no-op if already there), counting and
// logging the edge.
func (m *Membership) transition(p *peer, next State) {
	prev := State(p.state.Swap(int32(next)))
	if prev == next {
		return
	}
	switch next {
	case StateAlive:
		telemetry.ClusterPeerToAlive.Inc()
	case StateSuspect:
		telemetry.ClusterPeerToSuspect.Inc()
	case StateDead:
		telemetry.ClusterPeerToDead.Inc()
	}
	if m.cfg.Logger != nil {
		m.cfg.Logger.Info("peer transition",
			"peer", p.addr, "from", prev.String(), "to", next.String(), "fails", p.fails.Load())
	}
}

// publishStateGauges refreshes the szx_cluster_peer_state gauges from the
// current peer set.
func (m *Membership) publishStateGauges() {
	var alive, suspect, dead int64
	for _, p := range m.peers {
		switch State(p.state.Load()) {
		case StateAlive:
			alive++
		case StateSuspect:
			suspect++
		case StateDead:
			dead++
		}
	}
	telemetry.ClusterPeersAlive.Set(alive)
	telemetry.ClusterPeersSuspect.Set(suspect)
	telemetry.ClusterPeersDead.Set(dead)
}

// Peers snapshots every tracked peer.
func (m *Membership) Peers() []PeerView {
	out := make([]PeerView, 0, len(m.peers))
	for _, p := range m.peers {
		out = append(out, p.view())
	}
	return out
}

func (p *peer) view() PeerView {
	st := State(p.state.Load())
	v := PeerView{
		Addr:  p.addr,
		State: st.String(),
		Fails: int(p.fails.Load()),
		state: st,
	}
	if info := p.info.Load(); info != nil {
		v.NodeID = info.NodeID
		v.Draining = info.Draining
		v.Load = info.Load()
		v.InFlight = info.InFlight
		v.Queue = info.QueueDepth
	}
	if ns := p.lastSeen.Load(); ns != 0 {
		v.LastSeen = time.Unix(0, ns)
	}
	return v
}

// Handler serves the membership table as JSON — the /debug/cluster
// endpoint cmd/szxd mounts in cluster mode.
func (m *Membership) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Self  string     `json:"self,omitempty"`
			Peers []PeerView `json:"peers"`
		}{Self: NormalizeAddr(m.cfg.Self), Peers: m.Peers()})
	})
}
