//go:build !race

package experiments

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// random share of the items put into it.
const raceEnabled = false
