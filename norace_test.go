//go:build !race

package szx

const raceEnabled = false
