//go:build race

package szx

// raceEnabled reports a -race build, where sync.Pool drops a random
// quarter of the items put back, by design.
const raceEnabled = true
