//go:build race

package planner

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation inflates allocation counts.
const raceEnabled = true
