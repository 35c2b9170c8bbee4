//go:build race

package engine

// raceEnabled: under the race detector sync.Pool drops a share of its
// Puts on purpose, so allocation counts are not reproducible.
const raceEnabled = true
