//go:build !race

package planner

const raceEnabled = false
