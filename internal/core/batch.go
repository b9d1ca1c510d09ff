package core

// BatchRun executes fn for every item index in [0, items), distributing the
// items over the persistent worker pool through the engine's fan-out:
// participants claim the next item off a shared counter, so a batch of
// skewed array sizes rebalances dynamically instead of tail-latencying a
// static partition. fn receives a stable participant id
// (0..participants-1) alongside the item index, so callers can keep
// per-participant scratch without synchronization.
//
// BatchRun takes workers as given, capped at items; it applies no policy
// of its own. With workers <= 1 (or a single item) everything runs inline
// on the calling goroutine and the pool is never touched. Callers that want
// the engine's serial fallback ask Participants first, as the root batch
// entry points do. BatchRun returns only after every item has completed.
func BatchRun(items, workers int, fn func(worker, item int)) {
	workers = min(workers, items)
	if workers <= 1 {
		for i := range items {
			fn(0, i)
		}
		return
	}
	fanOut("batch", items, workers, true, fn)
}
