//go:build !race

package msql_test

const raceEnabled = false
