//go:build !race

package tshttp

// raceEnabled reports whether the race detector is compiled in; the
// allocation budgets allow for its instrumentation.
const raceEnabled = false
