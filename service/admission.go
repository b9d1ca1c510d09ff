package service

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/service/internal/wire"
	"repro/telemetry"
)

// admission is the front door: a counting semaphore bounds concurrently
// executing requests, a bounded counter bounds how many may wait for a
// slot, and everything past that is shed immediately. The invariant is
// that total commitment (running + queued) is capped, so a burst can never
// pile unbounded goroutines — and their request bodies — onto the heap.
type admission struct {
	sem       chan struct{} // buffered to maxInFlight; len() = in-flight
	queued    atomic.Int64  // requests currently waiting on sem
	maxQueue  int64
	queueWait time.Duration

	drainOnce sync.Once
	drainCh   chan struct{} // closed when draining begins
	isDrain   atomic.Bool
}

func newAdmission(maxInFlight, maxQueue int, queueWait time.Duration) *admission {
	return &admission{
		sem:       make(chan struct{}, maxInFlight),
		maxQueue:  int64(maxQueue),
		queueWait: queueWait,
		drainCh:   make(chan struct{}),
	}
}

func (a *admission) beginDrain() {
	a.drainOnce.Do(func() {
		a.isDrain.Store(true)
		close(a.drainCh)
	})
}

func (a *admission) draining() bool  { return a.isDrain.Load() }
func (a *admission) inFlight() int   { return len(a.sem) }
func (a *admission) queueDepth() int { return int(a.queued.Load()) }

// denial describes why admission refused a request.
type denial struct {
	code       string        // wire error code: its status is 429, 499 or 503
	msg        string        // human-readable detail
	retryAfter time.Duration // Retry-After hint
}

// admit tries to obtain an execution slot, queueing for up to queueWait.
// It returns (release, nil) on success — the caller MUST invoke release
// exactly once — or (nil, *denial) when the request should be shed.
// done is the request context's Done channel, so a client that hangs up
// while queued frees its queue slot immediately. traceID (may be "")
// becomes the queue-wait histogram's exemplar when this request sets a
// new maximum, linking the worst observed wait back to its trace.
func (a *admission) admit(done <-chan struct{}, traceID string) (func(), *denial) {
	if a.isDrain.Load() {
		telemetry.ServiceRejectedDraining.Inc()
		return nil, &denial{code: wire.CodeDraining, msg: "server is draining", retryAfter: a.queueWait}
	}

	// Fast path: a slot is free right now; skip the queue accounting and
	// the timer entirely.
	select {
	case a.sem <- struct{}{}:
		telemetry.ServiceInFlight.Inc()
		telemetry.ServiceQueueWaits.Observe(0)
		return a.release, nil
	default:
	}

	// Saturated: take a queue slot or shed. The counter is optimistic —
	// increment, then check the bound — so two racing requests can't both
	// sneak under the cap.
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		telemetry.ServiceRejectedQueueFull.Inc()
		return nil, &denial{code: wire.CodeOverloaded, msg: "admission queue full", retryAfter: a.queueWait}
	}
	telemetry.ServiceQueueDepth.Inc()
	start := time.Now()
	timer := time.NewTimer(a.queueWait)
	defer func() {
		timer.Stop()
		a.queued.Add(-1)
		telemetry.ServiceQueueDepth.Dec()
	}()

	select {
	case a.sem <- struct{}{}:
		telemetry.ServiceInFlight.Inc()
		telemetry.ServiceQueueWaits.ObserveExemplar(time.Since(start).Nanoseconds(), traceID)
		return a.release, nil
	case <-timer.C:
		telemetry.ServiceRejectedWaitTimeout.Inc()
		return nil, &denial{code: wire.CodeOverloaded, msg: "timed out waiting for an execution slot", retryAfter: a.queueWait}
	case <-a.drainCh:
		telemetry.ServiceRejectedDraining.Inc()
		return nil, &denial{code: wire.CodeDraining, msg: "server is draining", retryAfter: a.queueWait}
	case <-done:
		telemetry.ServiceCancelledRequests.Inc()
		return nil, &denial{code: wire.CodeCancelled, msg: "client closed request while queued"}
	}
}

func (a *admission) release() {
	<-a.sem
	telemetry.ServiceInFlight.Dec()
}
