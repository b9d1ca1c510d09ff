package service

import (
	"testing"
	"time"

	"repro/service/internal/wire"
	"repro/telemetry"
)

// TestAdmitCancelledWhileQueued pins the queued-cancel denial path at the
// admission layer. It cannot be driven through an HTTP/1.1 test server:
// net/http only starts the connection-watching background read once the
// request body has been consumed, and a handler parked in admission has
// not touched the body yet — so a client hang-up while queued goes
// unnoticed until the queue wait expires. The layer's contract still
// holds and is asserted here directly: when done fires, the request is
// denied with 499/cancelled, the cancel counter moves, and the
// queue-depth and in-flight gauges return to baseline.
func TestAdmitCancelledWhileQueued(t *testing.T) {
	telemetry.Reset()
	defer telemetry.Reset()
	a := newAdmission(1, 4, 10*time.Second)

	release, den := a.admit(nil, "")
	if den != nil {
		t.Fatalf("first admit denied: %+v", den)
	}

	done := make(chan struct{})
	denCh := make(chan *denial, 1)
	go func() {
		rel, d := a.admit(done, "")
		if rel != nil {
			rel()
		}
		denCh <- d
	}()

	deadline := time.Now().Add(5 * time.Second)
	for telemetry.ServiceQueueDepth.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second admit never queued")
		}
		time.Sleep(time.Millisecond)
	}
	before := telemetry.ServiceCancelledRequests.Load()
	close(done)

	d := <-denCh
	if d == nil {
		t.Fatal("cancelled admit was granted a slot")
	}
	if d.code != wire.CodeCancelled || wire.Status(d.code) != 499 {
		t.Fatalf("denial = %+v, want status 499 code %q", d, wire.CodeCancelled)
	}
	if got := telemetry.ServiceCancelledRequests.Load(); got != before+1 {
		t.Fatalf("cancelled counter = %d, want %d", got, before+1)
	}
	// admit's deferred cleanup runs before it returns, so by the time the
	// denial is received the queue accounting must already be unwound.
	if depth := telemetry.ServiceQueueDepth.Load(); depth != 0 {
		t.Fatalf("queue depth = %d after cancelled denial, want 0", depth)
	}
	release()
	if inflight := telemetry.ServiceInFlight.Load(); inflight != 0 {
		t.Fatalf("in-flight gauge = %d after release, want 0", inflight)
	}
}
