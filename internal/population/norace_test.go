//go:build !race

package population

// raceEnabled reports whether the tests run under the race detector (see
// race_test.go).
const raceEnabled = false
