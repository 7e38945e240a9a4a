//go:build race

package train

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation inflates allocation counts.
const raceEnabled = true
