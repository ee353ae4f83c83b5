//go:build race

package client

// raceEnabled skips the reply-buffer reuse guard: under the race detector
// sync.Pool drops a share of what it is given, on purpose.
const raceEnabled = true
