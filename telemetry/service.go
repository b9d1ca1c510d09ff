package telemetry

// The compression-service metric set (the service/ package and cmd/szxd).
// Unlike the per-block codec counters, none of these are gated on
// Enabled(): the service layer touches them a handful of times per
// request — noise against a multi-kilobyte payload — and a scrape of a
// freshly started daemon should show real counts without an opt-in flag.
var (
	// Per-endpoint admitted-request totals.
	ServiceRequestsCompress         Counter
	ServiceRequestsDecompress       Counter
	ServiceRequestsStreamCompress   Counter
	ServiceRequestsStreamDecompress Counter

	// Request/response payload bytes across all endpoints.
	ServiceBytesIn  Counter
	ServiceBytesOut Counter

	// Admission-control outcomes. QueueFull and WaitTimeout map to 429
	// responses, Draining to 503.
	ServiceRejectedQueueFull   Counter
	ServiceRejectedWaitTimeout Counter
	ServiceRejectedDraining    Counter

	// Request failures after admission: client-side (bad parameters,
	// malformed payloads — 4xx) and abandoned (context cancelled mid-flight).
	ServiceBadRequests       Counter
	ServiceCancelledRequests Counter

	// Instantaneous admission state: requests holding an execution slot and
	// requests parked in the wait queue.
	ServiceInFlight   Gauge
	ServiceQueueDepth Gauge

	// Wait time in the admission queue (admitted requests only) and
	// end-to-end handler time for admitted requests.
	ServiceQueueWaits       Histogram // ns waited for an execution slot
	ServiceRequestDurations Histogram // ns per admitted request

	// Batch endpoints (szx_batch_*): one request carries many arrays, so the
	// request counters above undercount the work — these track the arrays.
	ServiceRequestsBatchCompress   Counter
	ServiceRequestsBatchDecompress Counter
	BatchArrays                    Counter   // arrays processed across batch requests
	BatchArrayErrors               Counter   // arrays that failed individually (batch still 200)
	BatchArraysPerRequest          Histogram // arrays per batch request
	BatchArrayBytes                Histogram // payload bytes per array
)
