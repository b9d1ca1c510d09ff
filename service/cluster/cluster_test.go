package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestNormalizeAddr(t *testing.T) {
	cases := []struct{ in, want string }{
		{"localhost:8080", "http://localhost:8080"},
		{"http://localhost:8080", "http://localhost:8080"},
		{"http://localhost:8080/", "http://localhost:8080"},
		{"https://node-1.example:443///", "https://node-1.example:443"},
		{"  10.0.0.1:9000 ", "http://10.0.0.1:9000"},
		{"", ""},
		{"   ", ""},
	}
	for _, c := range cases {
		if got := NormalizeAddr(c.in); got != c.want {
			t.Errorf("NormalizeAddr(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// fakePeer is a toggleable stand-in for one szxd node: it serves
// /v1/cluster/info while up and refuses (500) while down.
type fakePeer struct {
	srv      *httptest.Server
	down     atomic.Bool
	draining atomic.Bool
}

func newFakePeer(t *testing.T, nodeID string) *fakePeer {
	t.Helper()
	p := &fakePeer{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/info", func(w http.ResponseWriter, _ *http.Request) {
		if p.down.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(Info{
			NodeID:     nodeID,
			InFlight:   3,
			QueueDepth: 2,
			Draining:   p.draining.Load(),
		})
	})
	p.srv = httptest.NewServer(mux)
	t.Cleanup(p.srv.Close)
	return p
}

func pollN(m *Membership, n int) {
	for range n {
		m.PollOnce(context.Background())
	}
}

func onlyPeer(t *testing.T, m *Membership) PeerView {
	t.Helper()
	views := m.Peers()
	if len(views) != 1 {
		t.Fatalf("expected 1 peer, got %d", len(views))
	}
	return views[0]
}

func TestFailureDetectorStateMachine(t *testing.T) {
	p := newFakePeer(t, "n1")
	m := New(Config{Peers: []string{p.srv.URL}})

	// Fresh peers start alive, before any probe.
	if v := onlyPeer(t, m); !v.Alive() {
		t.Fatalf("fresh peer state = %s, want alive", v.State)
	}

	pollN(m, 1)
	v := onlyPeer(t, m)
	if !v.Alive() || v.NodeID != "n1" || v.Load != 5 {
		t.Fatalf("after good probe: state=%s nodeID=%q load=%d, want alive/n1/5", v.State, v.NodeID, v.Load)
	}

	// One failure: still alive (below suspectAfter).
	p.down.Store(true)
	pollN(m, 1)
	if v := onlyPeer(t, m); !v.Alive() || v.Fails != 1 {
		t.Fatalf("after 1 failure: state=%s fails=%d, want alive/1", v.State, v.Fails)
	}

	// Second failure: suspect.
	pollN(m, 1)
	if v := onlyPeer(t, m); !v.Suspect() {
		t.Fatalf("after 2 failures: state=%s, want suspect", v.State)
	}

	// Fourth failure: dead.
	pollN(m, 2)
	if v := onlyPeer(t, m); v.State != "dead" {
		t.Fatalf("after 4 failures: state=%s, want dead", v.State)
	}

	// One good probe rejoins from dead.
	p.down.Store(false)
	pollN(m, 1)
	if v := onlyPeer(t, m); !v.Alive() || v.Fails != 0 {
		t.Fatalf("after recovery: state=%s fails=%d, want alive/0", v.State, v.Fails)
	}
}

func TestDrainingPeerIsAliveButNotRoutable(t *testing.T) {
	p := newFakePeer(t, "n1")
	p.draining.Store(true)
	m := New(Config{Peers: []string{p.srv.URL}})
	pollN(m, 1)
	v := onlyPeer(t, m)
	if !v.Alive() {
		t.Fatalf("draining peer state = %s, want alive", v.State)
	}
	if v.Routable() {
		t.Fatal("draining peer reported routable")
	}
}

func TestSelfAndDuplicatesSkipped(t *testing.T) {
	m := New(Config{
		Self: "localhost:9001",
		Peers: []string{
			"localhost:9001",         // self, host:port form
			"http://localhost:9001/", // self again, URL form
			"localhost:9002",
			"http://localhost:9002", // duplicate of the above
			"localhost:9003",
		},
	})
	views := m.Peers()
	if len(views) != 2 {
		t.Fatalf("expected self and duplicates skipped (2 peers), got %d: %+v", len(views), views)
	}
}

func TestStartStopAndStopWithoutStart(t *testing.T) {
	p := newFakePeer(t, "n1")
	m := New(Config{Peers: []string{p.srv.URL}, PollInterval: 10 * time.Millisecond})
	m.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v := onlyPeer(t, m); v.NodeID == "n1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background poll never populated peer info")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.Stop()
	m.Stop() // idempotent

	// Stop on a never-started Membership returns immediately.
	m2 := New(Config{Peers: []string{p.srv.URL}})
	done := make(chan struct{})
	go func() { m2.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop without Start hung")
	}
}

func TestDebugHandler(t *testing.T) {
	p := newFakePeer(t, "n1")
	m := New(Config{Self: "localhost:7777", Peers: []string{p.srv.URL}})
	pollN(m, 1)

	rr := httptest.NewRecorder()
	m.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/cluster", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("debug handler status = %d", rr.Code)
	}
	var got struct {
		Self  string     `json:"self"`
		Peers []PeerView `json:"peers"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("debug handler body not JSON: %v\n%s", err, rr.Body.String())
	}
	if got.Self != "http://localhost:7777" {
		t.Errorf("self = %q, want normalized http://localhost:7777", got.Self)
	}
	if len(got.Peers) != 1 || got.Peers[0].NodeID != "n1" || got.Peers[0].State != "alive" {
		t.Errorf("peers = %+v, want one alive n1", got.Peers)
	}
	if !strings.Contains(rr.Body.String(), "consecutive_failures") {
		t.Errorf("debug JSON missing failure-count field:\n%s", rr.Body.String())
	}
}
