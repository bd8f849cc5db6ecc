//go:build race

package stream

// raceEnabled reports a -race build, where sync.Pool drops a share of its
// Puts at random and the pooled-allocation bounds do not hold.
const raceEnabled = true
