//go:build race

package core

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
