//go:build race

package server

// raceEnabled skips the buffer-reuse guard: under the race detector
// sync.Pool drops a share of what it is given, on purpose.
const raceEnabled = true
