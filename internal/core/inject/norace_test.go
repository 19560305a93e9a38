//go:build !race

package inject_test

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
