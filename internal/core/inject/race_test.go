//go:build race

package inject_test

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops items at random, so allocation pins that rely on
// pooled recorders do not hold.
const raceEnabled = true
