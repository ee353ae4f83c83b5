//go:build race

package msql_test

// raceEnabled picks the allocation figures of a race-detector build,
// whose instrumentation moves some values to the heap.
const raceEnabled = true
