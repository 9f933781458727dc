//go:build race

package serve

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
