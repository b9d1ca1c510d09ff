package service

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"time"

	"repro/service/cluster"
	"repro/service/internal/wire"
	"repro/telemetry"
)

// newNodeID mints a random node identity for servers that weren't given
// one. Stability across restarts is an operator concern (-node-id); the
// default only needs to be unique within a fleet so peers can tell a
// restarted node from a renamed one.
func newNodeID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a fixed
		// fallback keeps this path total without inventing entropy.
		return "szx-node"
	}
	return "szx-" + hex.EncodeToString(b[:])
}

// handleClusterInfo serves GET /v1/cluster/info: this node's identity,
// build, and instantaneous load in the wire shape the membership poller
// consumes (cluster.Info). It is the one endpoint peers hit every poll
// interval, so it reads four atomics and marshals a small struct — no
// admission slot, no allocation beyond the JSON encoder.
func (s *Server) handleClusterInfo(w http.ResponseWriter, _ *http.Request) {
	bi := telemetry.GetBuildInfo()
	info := cluster.Info{
		NodeID:      s.nodeID,
		Version:     bi.Version,
		GoVersion:   bi.GoVersion,
		Kernels:     bi.Kernels,
		MaxInFlight: s.cfg.MaxInFlight,
		InFlight:    s.adm.inFlight(),
		QueueDepth:  s.adm.queueDepth(),
		Draining:    s.adm.draining(),
		UptimeSec:   int64(time.Since(s.start) / time.Second),
	}
	w.Header().Set("Content-Type", "application/json")
	if info.Draining {
		// The same drain hint as readyz, so pollers that only look at this
		// endpoint still learn when to back off.
		w.Header().Set(wire.RetryAfterHeader, wire.FormatRetryAfter(s.cfg.QueueWait))
	}
	_ = json.NewEncoder(w).Encode(info)
}

// NodeID returns this server's cluster identity (the configured one, or
// the generated default).
func (s *Server) NodeID() string { return s.nodeID }
