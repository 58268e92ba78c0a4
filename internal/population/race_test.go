//go:build race

package population

// raceEnabled reports whether the tests run under the race detector, whose
// sync.Pool drops a random quarter of Puts: allocation gates over pooled
// buffers cannot hold there and skip.
const raceEnabled = true
