package client

import (
	"context"
	"errors"
	"math/rand/v2"
	"net/url"
	"time"
)

// RetryPolicy tunes ClusterClient's retries of shed or failed requests
// (a single-node Client sends each request once). Attempts are
// capped, backoff is exponential with full jitter, a server-supplied
// Retry-After always wins over the computed backoff, and a sleep is never
// started that the context deadline could not survive — a retrying client
// fails fast at its deadline rather than sleeping through it.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (0 = 3, 1 = no retries).
	MaxAttempts int
	// BaseBackoff seeds the exponential schedule (0 = 25ms). Attempt n
	// sleeps a uniform random duration in (0, Base·2ⁿ], capped at
	// MaxBackoff — full jitter, so a thundering herd of shed clients
	// decorrelates instead of re-colliding.
	BaseBackoff time.Duration
	// MaxBackoff caps one sleep (0 = 1s).
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 25 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	return p
}

// IsRetryable reports whether err is worth retrying: a service shed
// (429/503, *Error.Retryable) or a transport-level failure (connection
// refused or reset by a dying node). Context cancellation and deadline
// expiry are never retryable — they mean the caller, not the server,
// ended the request.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *Error
	if errors.As(err, &se) {
		return se.Retryable()
	}
	// Anything else that made it out of http.Client.Do is a transport
	// error (*url.Error wrapping a net error): the request may never have
	// reached a server, so replaying it elsewhere or later is safe for
	// this service's idempotent POSTs.
	var ue *url.Error
	return errors.As(err, &ue)
}

// retryDelay computes the sleep before attempt (1-based count of failures
// so far): full-jitter exponential backoff, overridden upward by the
// server's Retry-After when it is longer.
func retryDelay(p RetryPolicy, attempt int, retryAfter time.Duration) time.Duration {
	ceil := p.BaseBackoff << (attempt - 1)
	if ceil > p.MaxBackoff || ceil <= 0 {
		ceil = p.MaxBackoff
	}
	d := time.Duration(rand.Int64N(int64(ceil))) + 1
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// sleepRetry waits d respecting ctx. If the context's deadline would
// expire mid-sleep, it gives up immediately — there is no point sleeping
// toward an attempt that could never be sent.
func sleepRetry(ctx context.Context, d time.Duration) error {
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d {
		return context.DeadlineExceeded
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryAfterOf extracts the server's Retry-After hint from err, 0 if none.
func retryAfterOf(err error) time.Duration {
	var se *Error
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}
