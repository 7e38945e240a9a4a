//go:build race

package train

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops a share of the items it is given.
const raceEnabled = true
